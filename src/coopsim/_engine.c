/* The compiled loops of coopsim, in five sets: one lattice event, log
 * replay, the mean-field RK4 loop, event-log text, and the per-site
 * index of a log with its two readers.
 *
 * coop_init, coop_select and coop_step are coopsim.lattice's RateTable and
 * step written in C, operation for operation, so that both give the same
 * bits: site rates summed over the neighbors in order, block sums and
 * prefix sums added left to right, the same bisection and clamps, the same
 * birth-source walk and the same refresh of the sites within distance two.
 * The draws are numpy's own routines on the caller's bit generator, in the
 * order of Generator.standard_exponential() then Generator.random().  Build
 * with -ffp-contract=off and without -ffast-math: a fused multiply-add or a
 * reordered sum changes how a rate rounds.
 *
 * coop_replay is the mark loop of coopsim.graphical.evolve_from_log and
 * coupled_evolve over an event log's columns, on one process or two.  The
 * mark law is not written here: each mark's result is read from a
 * transition table that coopsim.graphical builds from its _apply_mark, so
 * both engines apply the one rule.  It draws nothing and does no
 * arithmetic on times.
 *
 * coop_rk4 is the RK4 loop of coopsim.mean_field.integrate, with the same
 * operations in the same order, the same convergence test and the same
 * clamp, so both give the same trajectory bits.  Its tolerances are
 * passed in from mean_field.py, and a state the clamp refuses is left as
 * it is for Python to report.
 *
 * coop_format and coop_parse write and read the mark lines of
 * coopsim.graphical.EventLog.to_text and from_text.  coop_format writes
 * each time as repr does: the shortest digits that read back as the same
 * double, the closest of them to it and the even one of two as close, by
 * Schubfach (R. Giulietti, "The Schubfach way to render doubles", 2020),
 * laid out as CPython's format_float_short lays out repr.  Its 128-bit
 * powers of ten are computed from their definition with Python integers
 * in coopsim._engine and passed in.  coop_parse reads times by Clinger's
 * fast path or by Eisel-Lemire over the same table, less one, and leaves
 * to strtod what neither decides.  It takes only lines as to_text writes
 * them and refuses the text at any other; Python then reads it all with
 * its own loop, which writes every error message.  coop_lines counts the
 * lines, so that Python allocates the columns at their size.
 *
 * coop_index builds an event log's per-site index by one counting pass;
 * coop_sterile and coop_dual read it.  coop_sterile is the test of
 * coopsim.graphical.classify_sterile and coop_dual the walk of
 * build_dual, with the same comparisons in the same order; both return
 * codes, and Python writes every error message and builds the nodes.
 */
#include "numpy/random/distributions.h"  /* first: it includes Python.h, which must lead */
#include <locale.h>
#include <math.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#define EMPTY 0
#define COOPERATOR 1
#define DEFECTOR 2

/* mark kind codes: coopsim.graphical.KIND_ORDER */
#define CROSS 0
#define ARROW 1
#define DOT_ARROW 2
#define D_ARROW 3
#define C_PLUS_DOT_ARROW 4
#define D_PLUS_ARROW 5

typedef struct {
    int32_t n, deg, block, n_blocks;
    const int32_t *nbr;        /* n * deg neighbors, axis by axis, (-e_j, +e_j) */
    const int32_t *near2_ptr;  /* n + 1 offsets into near2 */
    const int32_t *near2;      /* the sites within distance two, ascending */
    int8_t *sites;
    double *rates, *block_sums;
    double *cum;               /* scratch: n_blocks block prefix sums, then block site prefix sums */
    double pair_beta, pair_coop, pair_defect;
    bitgen_t *bitgen;          /* the caller's Generator */
} coop_table;

/* Rate at which neighbor y feeds a birth into an empty site; 0 when y is empty. */
static double pair_rate(const coop_table *t, int32_t y)
{
    int8_t sy = t->sites[y];
    if (sy == COOPERATOR) {
        const int32_t *nz = t->nbr + (int64_t)y * t->deg;
        int k = 0;
        for (int b = 0; b < t->deg; b++)
            k += t->sites[nz[b]] == COOPERATOR;
        return t->pair_beta + t->pair_coop * k;
    }
    return sy == DEFECTOR ? t->pair_defect : 0.0;
}

static double site_rate(const coop_table *t, int32_t i)
{
    if (t->sites[i] != EMPTY)
        return 1.0;
    const int32_t *ny = t->nbr + (int64_t)i * t->deg;
    double tot = 0.0;
    for (int a = 0; a < t->deg; a++)
        if (t->sites[ny[a]] != EMPTY)
            tot += pair_rate(t, ny[a]);
    return tot;
}

static void sum_block(coop_table *t, int32_t b)
{
    int32_t lo = b * t->block, hi = lo + t->block < t->n ? lo + t->block : t->n;
    double s = 0.0;
    for (int32_t i = lo; i < hi; i++)
        s += t->rates[i];
    t->block_sums[b] = s;
}

/* Every rate and block sum from the configuration, as a fresh RateTable. */
void coop_init(coop_table *t)
{
    for (int32_t i = 0; i < t->n; i++)
        t->rates[i] = site_rate(t, i);
    for (int32_t b = 0; b < t->n_blocks; b++)
        sum_block(t, b);
}

/* Fills t->cum with the block prefix sums and returns the total rate. */
static double block_prefix(coop_table *t)
{
    double acc = 0.0;
    for (int32_t b = 0; b < t->n_blocks; b++)
        t->cum[b] = acc += t->block_sums[b];
    return acc;
}

/* Index of the first of cum[0..m) above x (bisect_right); when none is,
 * the last k with w[k] > 0, never a trailing zero-weight entry. */
static int32_t pick(const double *cum, const double *w, int32_t m, double x)
{
    int32_t k = 0;
    while (k < m && cum[k] <= x)
        k++;
    if (k == m)
        do k--; while (!(w[k] > 0.0));
    return k;
}

/* The site a target in [0, total) selects, given fresh block prefix sums;
 * *parent gets the birth source of an empty site, -1 for a death (or for
 * an empty site without occupied neighbors, which a fresh table never
 * selects). */
static int32_t select_site(coop_table *t, double target, int32_t *parent)
{
    int32_t b = pick(t->cum, t->block_sums, t->n_blocks, target);
    double residual = target - (b > 0 ? t->cum[b - 1] : 0.0);
    int32_t lo = b * t->block, m = lo + t->block < t->n ? t->block : t->n - lo;
    double *cum = t->cum + t->n_blocks, acc = 0.0;
    for (int32_t k = 0; k < m; k++)
        cum[k] = acc += t->rates[lo + k];
    int32_t j = pick(cum, t->rates + lo, m, residual);
    int32_t i = lo + j;
    *parent = -1;
    if (t->sites[i] != EMPTY)
        return i;
    residual -= j > 0 ? cum[j - 1] : 0.0;
    const int32_t *ny = t->nbr + (int64_t)i * t->deg;
    for (int a = 0; a < t->deg; a++) {
        if (t->sites[ny[a]] == EMPTY)
            continue;
        *parent = ny[a];
        residual -= pair_rate(t, ny[a]);
        if (residual < 0.0)
            break;
    }
    return i;
}

/* The selection step alone, for tests: block prefix sums, then the site. */
int32_t coop_select(coop_table *t, double target, int32_t *parent)
{
    block_prefix(t);
    return select_site(t, target, parent);
}

/* One event.  Returns the holding time and, after applying the event,
 * fills ev = (site, parent, state, prev); when the holding time exceeds
 * t_limit nothing is applied and ev[0] = -1.  A zero total rate is a
 * holding time of INFINITY, returned without a draw.  Returns -2, with
 * ev[0] the site, when the selected empty site has no occupied neighbor,
 * which only a stale table allows. */
double coop_step(coop_table *t, double t_limit, int32_t *ev)
{
    bitgen_t *bitgen = t->bitgen;
    double total = block_prefix(t);
    ev[0] = -1;
    if (total <= 0.0)
        return INFINITY;
    double elapsed = random_standard_exponential(bitgen) / total;
    if (elapsed > t_limit)
        return elapsed;
    double target = bitgen->next_double(bitgen->state) * total;
    int32_t parent, i = select_site(t, target, &parent);
    int8_t prev = t->sites[i];
    ev[0] = i;
    if (prev == EMPTY && parent < 0)
        return -2.0;
    int8_t state = prev == EMPTY ? t->sites[parent] : EMPTY;
    t->sites[i] = state;
    ev[1] = parent;
    ev[2] = state;
    ev[3] = prev;
    /* refresh: rates of the sites within distance two, then their blocks;
     * near2 is ascending, so each block appears in one run */
    const int32_t *z = t->near2 + t->near2_ptr[i], *end = t->near2 + t->near2_ptr[i + 1];
    for (const int32_t *p = z; p < end; p++)
        t->rates[*p] = site_rate(t, *p);
    for (int32_t last = -1; z < end; z++)
        if (*z / t->block != last)
            sum_block(t, last = *z / t->block);
    return elapsed;
}

/* The cell of a transition table for a mark of kind k with target x, its
 * dot z, and the states at x, at its source and at its dot. */
#define CELL(k, sx, sy, sz, z, x) (((((k) * 3 + (sx)) * 3 + (sy)) * 3 + (sz)) * 2 + ((z) == (x)))

/* Applies marks [lo, hi) of a log to s1, or of a coupled log to s1 and s2
 * (s2 is NULL for one process).  next1 and next2 are the processes'
 * transition tables: next[CELL(k, s[x], s[y], s[z], z, x)] is the state a
 * mark leaves at its target x, a site missing from a mark being read at x.
 * allowed[3 * a + b] says whether the coupling order keeps the pair (a, b).
 * Returns hi, or the index of the first mark it cannot apply, left
 * unapplied: an arrow without its source or dot, or a difference-stream
 * kind on one process.  With two processes it also stops at the first mark
 * that leaves its target in a pair the order forbids (applied). */
int64_t coop_replay(int8_t *s1, int8_t *s2, const int8_t *kind, const int32_t *target,
                    const int32_t *source, const int32_t *dot, int64_t lo, int64_t hi,
                    const int8_t *next1, const int8_t *next2, const int8_t *allowed)
{
    for (int64_t i = lo; i < hi; i++) {
        int k = kind[i];
        int32_t x = target[i], y = source[i], z = dot[i];
        /* one branch, taken at most once: a && on the kind would branch on
         * every mark, at random */
        if (((k != CROSS) & (y < 0)) | (((k == DOT_ARROW) | (k == C_PLUS_DOT_ARROW)) & (z < 0)))
            return i;
        int32_t ys = y < 0 ? x : y, zs = z < 0 ? x : z;
        if (s2 == NULL) {
            if (k > D_ARROW)
                return i;
            s1[x] = next1[CELL(k, s1[x], s1[ys], s1[zs], z, x)];
            continue;
        }
        int8_t a = next1[CELL(k, s1[x], s1[ys], s1[zs], z, x)];
        int8_t b = next2[CELL(k, s2[x], s2[ys], s2[zs], z, x)];
        s1[x] = a;
        s2[x] = b;
        if (!allowed[3 * a + b])
            return i;
    }
    return hi;
}

/* coop_rk4's status */
#define RK4_RAN_OUT 0
#define RK4_CONVERGED 1
#define RK4_ESCAPED 2

/* The mean-field field (dx, dy) at (x, y). */
static inline void field(double beta, double bc, double bd, double x, double y,
                         double *dx, double *dy)
{
    double e = 1.0 - x - y;
    *dx = (beta + bc * x) * e * x - x;
    *dy = (beta + bd) * e * y - y;
}

/* coopsim.mean_field._clamp_to_simplex: pulls a state that strays by at
 * most tol back onto the simplex.  Returns 0, leaving the state as it is,
 * when it is not finite or strays further. */
static int clamp(double *x, double *y, double tol)
{
    double v = -*x;  /* max(-x, -y, x + y - 1.0), first of equals as in Python */
    if (-*y > v)
        v = -*y;
    if (*x + *y - 1.0 > v)
        v = *x + *y - 1.0;
    if (!(isfinite(*x) && isfinite(*y)) || v > tol)
        return 0;
    if (0.0 > *x)
        *x = 0.0;
    if (0.0 > *y)
        *y = 0.0;
    double total = *x + *y;
    if (total > 1.0) {
        *x /= total;
        *y /= total;
    }
    return 1;
}

/* Up to n_steps RK4 steps of size dt from (xs[0], ys[0]), writing state i
 * to xs[i], ys[i].  Sets *last to the index of the last state written and
 * returns RK4_RAN_OUT, RK4_CONVERGED (the field's L1 norm at *last fell
 * below convergence_tol, tested only with until_converged), or RK4_ESCAPED
 * (state *last, left unclamped, is not finite or strays by more than
 * simplex_tol). */
int coop_rk4(double *xs, double *ys, int64_t n_steps, double beta, double bc, double bd,
             double dt, int until_converged, double simplex_tol, double convergence_tol,
             int64_t *last)
{
    double x = xs[0], y = ys[0], half = dt / 2.0, sixth = dt / 6.0;
    double k1x, k1y, k2x, k2y, k3x, k3y, k4x, k4y;
    for (int64_t i = 1; i <= n_steps; i++) {
        field(beta, bc, bd, x, y, &k1x, &k1y);
        if (until_converged && fabs(k1x) + fabs(k1y) < convergence_tol) {
            *last = i - 1;
            return RK4_CONVERGED;
        }
        field(beta, bc, bd, x + half * k1x, y + half * k1y, &k2x, &k2y);
        field(beta, bc, bd, x + half * k2x, y + half * k2y, &k3x, &k3y);
        field(beta, bc, bd, x + dt * k3x, y + dt * k3y, &k4x, &k4y);
        x = x + sixth * (k1x + 2.0 * (k2x + k3x) + k4x);
        y = y + sixth * (k1y + 2.0 * (k2y + k3y) + k4y);
        /* NaN fails every test of the guard */
        int escaped = !(x >= 0.0 && y >= 0.0 && x + y <= 1.0) && !clamp(&x, &y, simplex_tol);
        xs[i] = x;
        ys[i] = y;
        if (escaped) {
            *last = i;
            return RK4_ESCAPED;
        }
    }
    *last = n_steps;
    return RK4_RAN_OUT;
}

/* A site as decimal digits, or "-" for none (a negative site), written
 * at p; returns the end. */
static char *put_site(char *p, int32_t v)
{
    if (v < 0) {
        *p++ = '-';
        return p;
    }
    char digits[10];
    int n = 0;
    do {
        digits[n++] = (char)('0' + v % 10);
        v /= 10;
    } while (v > 0);
    while (n > 0)
        *p++ = digits[--n];
    return p;
}

/* The powers of ten 10^K that shortest() multiplies by, K in
 * [POW10_MIN, 324]: row K - POW10_MIN of the table passed to
 * coop_format holds g = floor(10^K / 2^r) + 1, with r = floor(log2 10^K)
 * - 127 so that 2^127 < g <= 2^128, as its high and low 64-bit words. */
#define POW10_MIN (-292)

typedef unsigned __int128 u128;

/* The round-to-odd of y = cp 10^K / 2^(r + 128), g being the table's row
 * for 10^K: floor(y), with its last bit set when y is not whole.  g
 * exceeds 10^K / 2^r by at most 1, so g cp / 2^128 exceeds y by less than
 * 2^-64 (cp < 2^60), and a y that is not whole lies farther than that
 * from every whole number (Giulietti's proof), so the whole part and the
 * top 64 fraction bits of g cp / 2^128 decide both. */
static uint64_t round_to_odd(const uint64_t *g, uint64_t cp)
{
    u128 z = (u128)g[0] * cp + (uint64_t)((u128)g[1] * cp >> 64);  /* floor(g * cp / 2^64) */
    return (uint64_t)(z >> 64) | ((uint64_t)z != 0);
}

/* Schubfach on a positive finite double v = c 2^q: sets *digits and
 * returns e such that *digits 10^e is the shortest decimal that reads
 * back as v, the closest to v of those, and of two as close the one with
 * an even last digit.  *digits may end in zeros.  The shifts of negative
 * numbers are arithmetic, as in every compiler that builds this. */
static int shortest(double v, const uint64_t *pow10, uint64_t *digits)
{
    uint64_t bits, c;
    memcpy(&bits, &v, sizeof bits);
    uint64_t fraction = bits & ((UINT64_C(1) << 52) - 1);
    int biased = (int)(bits >> 52), q;
    if (biased == 0) {
        c = fraction;
        q = -1074;
    } else {
        c = fraction | UINT64_C(1) << 52;
        q = biased - 1075;
        if (-52 <= q && q <= 0 && (c & ((UINT64_C(1) << -q) - 1)) == 0) {
            *digits = c >> -q;  /* a whole number below 2^53 is its own shortest */
            return 0;
        }
    }
    /* the gap below v is half the gap above it at a power of two */
    int closer = fraction == 0 && biased > 1;
    /* k = floor(log10 of the gap above v, or 3/4 of it when closer) */
    int k = (q * 1262611 - (closer ? 524031 : 0)) >> 22;
    int h = q + ((-k * 1741647) >> 19) + 1;  /* q + floor(log2 10^-k) + 1, in [1, 4] */
    const uint64_t *g = pow10 + 2 * (-k - POW10_MIN);
    /* v, and the bounds of the doubles that round to it, in units of 10^k / 4 */
    uint64_t vb = round_to_odd(g, c << 2 << h);
    uint64_t vbl = round_to_odd(g, ((c << 2) - 2 + closer) << h);
    uint64_t vbr = round_to_odd(g, ((c << 2) + 2) << h);
    int even = (c & 1) == 0;  /* round-half-even reading takes the bounds themselves */
    uint64_t lower = vbl + !even, upper = vbr - !even, s = vb >> 2;
    if (s >= 10) {  /* one digit fewer: of the two next to v, at most one lies within */
        uint64_t sp = s / 10;
        int u_in = lower <= 40 * sp, w_in = 40 * sp + 40 <= upper;
        if (u_in != w_in) {
            *digits = sp + w_in;
            return k + 1;
        }
    }
    int u_in = lower <= 4 * s, w_in = 4 * s + 4 <= upper;
    if (u_in != w_in) {
        *digits = s + w_in;
        return k;
    }
    /* both within: the closer, or the even one at a tie */
    *digits = s + (vb > 4 * s + 2 || (vb == 4 * s + 2 && (s & 1)));
    return k;
}

/* A finite double as repr writes it, at p; returns the end, at most 24
 * bytes on.  The layout is CPython's format_float_short for repr: the
 * exponent form when the decimal point would sit 4 or more places before
 * the first digit or more than 16 after it, with a sign and at least two
 * digits ("1e-05", "1e+16"); else the fixed form, with ".0" after a whole
 * number. */
static char *put_time(char *p, double v, const uint64_t *pow10)
{
    if (signbit(v)) {
        *p++ = '-';
        v = -v;
    }
    if (v == 0.0) {
        memcpy(p, "0.0", 3);
        return p + 3;
    }
    uint64_t m;
    int e = shortest(v, pow10, &m);
    /* the digits at [d, z), written as two 32-bit halves of at most 9
     * and 8 digits, the trailing zeros then dropped */
    char buf[20], *z = buf + sizeof buf, *d = z;
    uint32_t x = (uint32_t)(m % 100000000), y = (uint32_t)(m / 100000000);
    if (y > 0) {
        for (int j = 0; j < 8; j++, x /= 10)
            *--d = (char)('0' + x % 10);
        x = y;
    }
    for (; x > 0; x /= 10)
        *--d = (char)('0' + x % 10);
    for (; z[-1] == '0'; z--)
        e++;
    int n = (int)(z - d), point = n + e;  /* v = 0.DIGITS 10^point */
    if (point <= -4 || point > 16) {
        *p++ = d[0];
        if (n > 1) {
            *p++ = '.';
            memcpy(p, d + 1, n - 1);
            p += n - 1;
        }
        int exponent = abs(point - 1);
        *p++ = 'e';
        *p++ = point - 1 < 0 ? '-' : '+';
        if (exponent >= 100)
            *p++ = (char)('0' + exponent / 100);
        *p++ = (char)('0' + exponent / 10 % 10);
        *p++ = (char)('0' + exponent % 10);
    } else if (point <= 0) {
        memcpy(p, "0.000", 2 - point);
        memcpy(p + 2 - point, d, n);
        p += 2 - point + n;
    } else if (point < n) {
        memcpy(p, d, point);
        p[point] = '.';
        memcpy(p + point + 1, d + point, n - point);
        p += n + 1;
    } else {
        memcpy(p, d, n);
        memset(p + n, '0', point - n);
        memcpy(p + point, ".0", 2);
        p += point + 2;
    }
    return p;
}

/* The mark lines of coopsim.graphical.EventLog.to_text for marks [0, n):
 * "TIME KIND TARGET SOURCE DOT\n", the time as repr writes it, the kind
 * as names[kind] (n_names of them) and a site of -1 as "-"; pow10 is the
 * table above.  Writes at most cap bytes to out and returns the number
 * written, or -1 when a kind has no name, a time is not finite or fewer
 * bytes are left than the longest line of its kind could take: a time
 * of 24, three sites of 10, four spaces and a newline. */
int64_t coop_format(char *out, int64_t cap, const double *time, const int8_t *kind,
                    const int32_t *target, const int32_t *source, const int32_t *dot, int64_t n,
                    const char *const *names, int n_names, const uint64_t *pow10)
{
    char *p = out, *end = out + cap;
    for (int64_t i = 0; i < n; i++) {
        if (kind[i] < 0 || kind[i] >= n_names || !isfinite(time[i]))
            return -1;
        size_t k_len = strlen(names[kind[i]]);
        if ((size_t)(end - p) < 24 + k_len + 3 * 10 + 5)
            return -1;
        p = put_time(p, time[i], pow10);
        *p++ = ' ';
        memcpy(p, names[kind[i]], k_len);
        p += k_len;
        *p++ = ' ';
        p = put_site(p, target[i]);
        *p++ = ' ';
        p = put_site(p, source[i]);
        *p++ = ' ';
        p = put_site(p, dot[i]);
        *p++ = '\n';
    }
    return p - out;
}

/* The powers of ten that a double holds exactly: Clinger's fast path. */
static const double exact_pow10[23] = {
    1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11,
    1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22,
};

/* The double nearest w 10^q, for 0 < w < 2^64 and q in [POW10_MIN, 308],
 * by Eisel-Lemire (D. Lemire, "Number parsing at a gigabyte per second",
 * 2021), into *v; returns 0 when the product does not decide it or the
 * double would not be normal, leaving the number to strtod.
 *
 * With r = floor(log2 10^q) - 127, the pow10 row of q less one is
 * floor(T), T = 10^q / 2^r in [2^127, 2^128).  For w' = w 2^lz in
 * [2^63, 2^64), Z = w' floor(T) < 2^192 lies below V = w' T by less than
 * w' < 2^64, and w 10^q = V 2^(r - lz).  Rounding V to 53 bits changes
 * only at the odd multiples of half its unit, 2^(b - 53) for V's top bit
 * b >= 190.  So when Z is no multiple of 2^(b - 53) and lies 2^64 or more
 * below the next, no such point lies in [Z, V], which round alike. */
static int eisel_lemire(uint64_t w, int q, const uint64_t *pow10, double *v)
{
    const uint64_t *g = pow10 + 2 * (q - POW10_MIN);
    uint64_t g_lo = g[1] - 1, g_hi = g[0] - (g[1] == 0);
    int lz = __builtin_clzll(w);
    w <<= lz;
    u128 low = (u128)w * g_lo;
    u128 top = (u128)w * g_hi + (uint64_t)(low >> 64);  /* Z's bits 64 to 191 */
    int s = (int)(top >> 127);                       /* b = 190 + s */
    u128 below = top & (((u128)1 << (73 + s)) - 1);  /* Z mod 2^(b - 53), above bit 64 */
    if (below == ((u128)1 << (73 + s)) - 1 || (below == 0 && (uint64_t)low == 0))
        return 0;
    uint64_t m = (uint64_t)(top >> (74 + s)) + (uint64_t)(top >> (73 + s) & 1);
    int biased = 138 + s + ((q * 1741647) >> 19) - 127 - lz + 52 + 1023;
    if (m == UINT64_C(1) << 53) {
        m >>= 1;
        biased++;
    }
    if (biased < 1 || biased > 2046)
        return 0;
    uint64_t bits = (uint64_t)biased << 52 | (m & ((UINT64_C(1) << 52) - 1));
    memcpy(v, &bits, sizeof bits);
    return 1;
}

/* Skips [0-9]+ at *p (before end), accumulating the digits into *w modulo
 * 2^64; returns how many it skipped. */
static int64_t skip_digits(const char **p, const char *end, uint64_t *w)
{
    const char *start = *p;
    for (; *p < end && (unsigned)(**p - '0') < 10; (*p)++)
        *w = 10 * *w + (uint64_t)(**p - '0');
    return *p - start;
}

/* Reads a time -?[0-9]+(\.[0-9]+)?(e[+-]?[0-9]+)? at *p, before end, into
 * *v and moves *p past it; returns 0 when none is there.  With w its
 * digits and q its decimal exponent, up to 19 significant digits, w 10^q
 * is read exactly by Clinger's fast path when w <= 2^53 and |q| <= 22,
 * else by eisel_lemire; strtod reads a longer number, and one that
 * eisel_lemire leaves.  All three round correctly. */
static int read_time(const char **p, const char *end, const uint64_t *pow10, double *v)
{
    int negative = *p < end && **p == '-';
    const char *digits = *p + negative, *c = digits;
    uint64_t w = 0;
    int64_t n = skip_digits(&c, end, &w), q = 0;
    if (n == 0)
        return 0;
    if (c < end && *c == '.') {
        c++;
        q = -skip_digits(&c, end, &w);
        if (q == 0)
            return 0;
        n -= q;
    }
    int many = 0;  /* more than 19 significant digits, or an exponent beyond 5 digits */
    if (n > 19) {  /* the leading zeros are not significant */
        for (const char *d = digits; d < c && (*d == '0' || *d == '.'); d++)
            n -= *d == '0';
        many = n > 19;
    }
    if (c < end && *c == 'e') {
        c++;
        int e_negative = c < end && *c == '-';
        c += c < end && (*c == '+' || *c == '-');
        uint64_t e = 0;
        int64_t e_digits = skip_digits(&c, end, &e);
        if (e_digits == 0)
            return 0;
        many |= e_digits > 5;
        q += e_negative ? -(int64_t)e : (int64_t)e;
    }
    if (!many && w == 0) {
        *v = 0.0;
    } else if (!many && w <= UINT64_C(1) << 53 && -22 <= q && q <= 22) {
        *v = q < 0 ? (double)w / exact_pow10[-q] : (double)w * exact_pow10[q];
    } else if (many || q < POW10_MIN || q > 308 || !eisel_lemire(w, (int)q, pow10, v)) {
        char *stop;
        *v = strtod(digits, &stop);  /* rounding is symmetric: the sign comes after */
        if (stop != c)
            return 0;
    }
    if (negative)
        *v = -*v;
    *p = c;
    return 1;
}

/* The number of newlines in the len bytes at text. */
int64_t coop_lines(const char *text, int64_t len)
{
    int64_t n = 0;
    for (const char *p = text, *end = text + len; (p = memchr(p, '\n', end - p)) != NULL; p++)
        n++;
    return n;
}

/* The index of the name of the k_len bytes at k0 among n_names names, or -1. */
static int kind_code(const char *k0, size_t k_len, const char *const *names, int n_names)
{
    for (int k = 0; k < n_names; k++)
        if (strlen(names[k]) == k_len && !memcmp(names[k], k0, k_len))
            return k;
    return -1;
}

/* Reads a site [0-9]+ below n_sites at *p, or "-" (as -1) when dash is
 * set, followed by the byte sep; returns -2 when there is none. */
static int64_t read_site(const char **p, const char *end, int64_t n_sites, int dash, char sep)
{
    const char *q = *p;
    int64_t v = 0;
    if (dash && q < end && *q == '-') {
        v = -1;
        q++;
    } else {
        if (!(q < end && *q >= '0' && *q <= '9'))
            return -2;
        for (; q < end && *q >= '0' && *q <= '9'; q++)
            if ((v = 10 * v + (*q - '0')) >= n_sites)
                return -2;
    }
    if (!(q < end && *q == sep))
        return -2;
    *p = q + 1;
    return v;
}

/* The mark lines of coopsim.graphical.EventLog.from_text, read from the
 * len bytes at text into the columns, which hold cap marks.  Takes only
 * canonical lines, "TIME KIND TARGET SOURCE DOT\n" with single spaces:
 * TIME as read_time takes it, with the table of coop_format, and in [t_lo,
 * t_hi]; KIND one of the n_names names; TARGET, SOURCE and DOT [0-9]+ below
 * n_sites, SOURCE and DOT also "-".  Returns the number of marks read, or
 * -1 at the first line it does not take, which leaves the text to the
 * Python loop.  read_time and float() both round correctly.  Where the
 * locale's decimal point is not '.', strtod would stop short, so the
 * whole text is refused. */
int64_t coop_parse(const char *text, int64_t len, const char *const *names, int n_names,
                   double t_lo, double t_hi, int64_t n_sites, double *time, int8_t *kind,
                   int32_t *target, int32_t *source, int32_t *dot, int64_t cap,
                   const uint64_t *pow10)
{
    if (strcmp(localeconv()->decimal_point, ".") != 0)
        return -1;
    const char *p = text, *end = text + len;
    int64_t i = 0;
    for (; p < end; i++) {
        double t;
        if (i == cap || !read_time(&p, end, pow10, &t))
            return -1;
        if (!(p < end && *p == ' ') || !(t_lo <= t && t <= t_hi))
            return -1;
        const char *k0 = ++p;
        while (p < end && *p != ' ')
            p++;
        if (p == end)
            return -1;
        int k = kind_code(k0, p++ - k0, names, n_names);
        if (k < 0)
            return -1;
        int64_t x = read_site(&p, end, n_sites, 0, ' ');
        int64_t y = x < 0 ? -2 : read_site(&p, end, n_sites, 1, ' ');
        int64_t z = y < -1 ? -2 : read_site(&p, end, n_sites, 1, '\n');
        if (z < -1)
            return -1;
        time[i] = t;
        kind[i] = (int8_t)k;
        target[i] = (int32_t)x;
        source[i] = (int32_t)y;
        dot[i] = (int32_t)z;
    }
    return i;
}

/* An event log's columns and its per-site index: site x's crosses sit at
 * [cross_ptr[x], cross_ptr[x + 1]) of cross_time, and the marks of every
 * arrow kind aimed at x at [arrow_ptr[x], arrow_ptr[x + 1]) of the arrow_*
 * arrays, each with its source and whether it can feed x (its dot is not
 * x); both in log order, so in time order.  t_lo is the log's first time,
 * t_start - history. */
typedef struct {
    int64_t n_marks;
    int32_t n_sites;
    double t_lo;
    const double *time;
    const int8_t *kind;
    const int32_t *target, *source, *dot;
    int32_t *cross_ptr, *arrow_ptr;
    double *cross_time, *arrow_time;
    int32_t *arrow_source;
    int8_t *arrow_feeds;
} coop_site_index;

/* From each site's count at ptr[x + 1], each site's start at ptr[x]. */
static void starts_from_counts(int32_t *ptr, int32_t n_sites)
{
    for (int32_t x = 0; x < n_sites; x++)
        ptr[x + 1] += ptr[x];
}

/* From each site's end at ptr[x], which the scatter leaves there, each
 * site's start again. */
static void starts_from_ends(int32_t *ptr, int32_t n_sites)
{
    for (int32_t x = n_sites; x > 0; x--)
        ptr[x] = ptr[x - 1];
    ptr[0] = 0;
}

/* Fills the index arrays from the columns: counts per site, prefix sums,
 * then a scatter in log order, which keeps log order within each site.
 * The arrays hold n_sites + 1 offsets and as many entries as the log has
 * crosses, or marks of other kinds. */
void coop_index(coop_site_index *ix)
{
    memset(ix->cross_ptr, 0, sizeof(int32_t) * ((size_t)ix->n_sites + 1));
    memset(ix->arrow_ptr, 0, sizeof(int32_t) * ((size_t)ix->n_sites + 1));
    for (int64_t i = 0; i < ix->n_marks; i++)
        (ix->kind[i] == CROSS ? ix->cross_ptr : ix->arrow_ptr)[ix->target[i] + 1]++;
    starts_from_counts(ix->cross_ptr, ix->n_sites);
    starts_from_counts(ix->arrow_ptr, ix->n_sites);
    for (int64_t i = 0; i < ix->n_marks; i++) {
        int32_t x = ix->target[i];
        if (ix->kind[i] == CROSS) {
            ix->cross_time[ix->cross_ptr[x]++] = ix->time[i];
        } else {
            int32_t k = ix->arrow_ptr[x]++;
            ix->arrow_time[k] = ix->time[i];
            ix->arrow_source[k] = ix->source[i];
            ix->arrow_feeds[k] = ix->dot[i] != x;
        }
    }
    starts_from_ends(ix->cross_ptr, ix->n_sites);
    starts_from_ends(ix->arrow_ptr, ix->n_sites);
}

/* bisect_left and bisect_right of Python over a[lo:hi]. */
static int32_t bisect_left(const double *a, double v, int32_t lo, int32_t hi)
{
    while (lo < hi) {
        int32_t mid = lo + (hi - lo) / 2;
        if (a[mid] < v)
            lo = mid + 1;
        else
            hi = mid;
    }
    return lo;
}

static int32_t bisect_right(const double *a, double v, int32_t lo, int32_t hi)
{
    while (lo < hi) {
        int32_t mid = lo + (hi - lo) / 2;
        if (v < a[mid])
            hi = mid;
        else
            lo = mid + 1;
    }
    return lo;
}


/* The index in a of the last of site x's entries before v, or -1. */
static int32_t last_before(const double *a, const int32_t *ptr, int32_t x, double v)
{
    int32_t i = bisect_left(a, v, ptr[x], ptr[x + 1]);
    return i > ptr[x] ? i - 1 : -1;
}

/* coop_sterile's outcomes */
#define STERILE_NO 0
#define STERILE_YES 1
#define STERILE_NOT_DOT_ARROW 2
#define STERILE_NO_DOT 3
#define STERILE_CROSS_HISTORY 4   /* the last cross at the dot may lie before the log */
#define STERILE_ARROW_HISTORY 5   /* the last arrow into the dot may lie before the log */

/* Whether mark i, a dot-arrow at time s with its dot at z, is sterile:
 * with u the last cross at z and v the last arrow into z before s, when
 * s - u < 1 < s - v < 2.  A missing u or v is decisive only when the log
 * reaches one or two time units back from s. */
int coop_sterile(const coop_site_index *ix, int64_t i)
{
    if (ix->kind[i] != DOT_ARROW && ix->kind[i] != C_PLUS_DOT_ARROW)
        return STERILE_NOT_DOT_ARROW;
    int32_t z = ix->dot[i];
    if (z < 0)
        return STERILE_NO_DOT;
    double s = ix->time[i];
    int32_t u = last_before(ix->cross_time, ix->cross_ptr, z, s);
    if (u < 0)
        return ix->t_lo <= s - 1.0 ? STERILE_NO : STERILE_CROSS_HISTORY;
    if (!(s - ix->cross_time[u] < 1.0))
        return STERILE_NO;
    int32_t v = last_before(ix->arrow_time, ix->arrow_ptr, z, s);
    if (v < 0)
        return ix->t_lo <= s - 2.0 ? STERILE_NO : STERILE_ARROW_HISTORY;
    double age = s - ix->arrow_time[v];
    return 1.0 < age && age < 2.0 ? STERILE_YES : STERILE_NO;
}

/* coop_dual's outcomes */
#define DUAL_DONE 0
#define DUAL_FULL 1         /* the rows or the stack ran out of room */
#define DUAL_BUDGET 2       /* max_nodes rows written, and a segment still pending */
#define DUAL_SOURCELESS 3   /* a feeding arrow without a source */

/* The rows of a dual tree, one per segment in hierarchy order, and the
 * stack of pending segments, each held by the arrow it crosses (-1 for the
 * root). */
typedef struct {
    int64_t cap, stack_cap;  /* rows, and pending segments, the arrays hold */
    int32_t *site;
    int64_t *parent;         /* the parent's row, -1 for the root */
    int32_t *ordinal;        /* the place among the parent's children, from 1 */
    double *r_hi, *r_lo;     /* the real times at which the segment starts and ends */
    int8_t *stopped;         /* 1 when a cross ends the segment */
    int32_t *stack_arrow;
    int64_t *stack_parent;
    int32_t *stack_ordinal;
    int64_t rows;            /* out: rows written */
    int32_t arrow;           /* out: the arrow, for DUAL_SOURCELESS */
} coop_dual_walk;

/* The walk of coopsim.graphical.build_dual from (x, t): each segment runs
 * down from its entry time r_hi to the last cross before it, or to
 * t_start, and has one child per feeding arrow strictly inside, numbered
 * in time order and pushed latest first, so the rows come in preorder.
 * Returns DUAL_DONE, DUAL_BUDGET when max_nodes rows are written and a
 * segment is still pending, DUAL_SOURCELESS when a segment's feeding
 * arrows, met latest first, include one without a source (its row is the
 * last written), or DUAL_FULL when cap or stack_cap is too small: the
 * caller then walks again with more room. */
int coop_dual(const coop_site_index *ix, coop_dual_walk *w, int32_t x, double t, double t_start,
              int64_t max_nodes)
{
    int64_t top = 1, rows = 0;
    int status = DUAL_DONE;
    if (w->stack_cap < 1)
        return DUAL_FULL;
    w->stack_arrow[0] = -1;
    w->stack_parent[0] = -1;
    w->stack_ordinal[0] = 1;
    while (top > 0) {
        if (rows >= max_nodes) {
            status = DUAL_BUDGET;
            break;
        }
        if (rows == w->cap) {
            status = DUAL_FULL;
            break;
        }
        top--;
        int32_t a = w->stack_arrow[top];
        int32_t site = a < 0 ? x : ix->arrow_source[a];
        double r_hi = a < 0 ? t : ix->arrow_time[a];
        int32_t c = last_before(ix->cross_time, ix->cross_ptr, site, r_hi);
        int stopped = c >= 0 && ix->cross_time[c] >= t_start;
        double r_lo = stopped ? ix->cross_time[c] : t_start;
        w->site[rows] = site;
        w->parent[rows] = w->stack_parent[top];
        w->ordinal[rows] = w->stack_ordinal[top];
        w->r_hi[rows] = r_hi;
        w->r_lo[rows] = r_lo;
        w->stopped[rows] = (int8_t)stopped;
        int64_t row = rows++;
        /* the arrows strictly inside (r_lo, r_hi); r_hi <= t, so none is later than t */
        int32_t end = ix->arrow_ptr[site + 1];
        int32_t lo = bisect_right(ix->arrow_time, r_lo, ix->arrow_ptr[site], end);
        int32_t hi = bisect_left(ix->arrow_time, r_hi, lo, end);
        int32_t n = 0;
        for (int32_t k = lo; k < hi; k++)
            n += ix->arrow_feeds[k] != 0;
        if (top + n > w->stack_cap) {
            status = DUAL_FULL;
            break;
        }
        for (int32_t k = hi - 1; k >= lo; k--) {
            if (!ix->arrow_feeds[k])
                continue;
            if (ix->arrow_source[k] < 0) {
                w->arrow = k;
                status = DUAL_SOURCELESS;
                break;
            }
            w->stack_arrow[top] = k;
            w->stack_parent[top] = row;
            w->stack_ordinal[top] = n--;
            top++;
        }
        if (status != DUAL_DONE)
            break;
    }
    w->rows = rows;
    return status;
}
