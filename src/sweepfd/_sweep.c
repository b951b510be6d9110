/* One periodic pair sweep: the compiled kernel behind sweep.sweep().
 *
 * Each function gives, sample for sample, the bits of the lfilter reference
 * sweep in tests/oracles.py.  The starred chain (first touches) is the order-1
 * direct-form-II-transposed filter that scipy.signal.lfilter evaluates:
 * y = z + a*x, then z = 0.0*x - (-b)*y.  The chain carries z = b*y
 * instead, two dependent flops per sample rather than three.  The two
 * agree bit for bit whenever b*y is finite and nonzero.  Then x is finite
 * too, since a and b are finite and an infinite or nan x makes y, and so
 * b*y, infinite or nan (0*inf is nan); so 0.0*x is a zero, and adding a
 * zero to b*y returns b*y.  Where b*y is a signed zero, an infinity or a
 * nan, one compare on its bits takes the literal form instead, a rarely
 * taken, well predicted branch.  Where b*y overflowed from a finite x that
 * form, +-0 - (-+inf), is the same infinity, so the test may include the
 * infinities, which makes it one compare.  This covers every field
 * without a nan on entry; where two nans meet, the sign of the result
 * depends on code generation, so a nan written into the field beforehand
 * may leave nans of another sign than lfilter's.  The second touch of
 * each sample is written as soon as the chain has read the sample after
 * it, so no temporary array is needed.
 *
 * One body holds the recurrence: segment runs it over consecutive samples
 * for one chain, or for four independent chains interleaved in one loop,
 * with the number of chains constant at each call, and asc runs it over
 * the ring.  A descending sweep with (a, b, l) visits the pairs (n-1,0),
 * (n-2,n-1), ..., (0,1): it is the ascending sweep of the mirrored ring
 * (u_0, u_{n-1}, ..., u_1) with b and l exchanged, which is why the
 * recurrence coefficient is b ascending and l descending.  So asc takes
 * step = +1 or -1 and addresses ring sample i >= 1 as p[step*i], with p at
 * the start (step = 1) or the end (step = -1) of each array; sample 0
 * stays [0].  Each product and sum of the mirrored sweep has the operands
 * of the descending recurrence, only in swapped order, and IEEE
 * multiplication and addition commute, so the bits are those of the
 * descending sweep written out.
 *
 * On Linux, a sweep of n >= 2^17 samples runs on two threads when
 * 0 < |b| < 1, the warm-up length K = ceil(4*53 / -log2|b|) is at most
 * n/8 and the caller's affinity mask holds a CPU besides the one it runs
 * on.  Ring samples 2..n-1 are cut into eight pieces of (n-2)/8 samples,
 * the last one taking the remainder.  The caller runs pieces 0-3 and a
 * helper thread, allowed every CPU of that mask but the caller's current
 * one, runs pieces 4-7.  Each piece but piece 0 starts from the chain
 * state computed from a zero state over the K samples before it, and each
 * thread first computes the warm-ups of its own pieces: the chain forgets
 * its start by a factor |b| per sample, so after K samples the guess is
 * normally the true state bit for bit.  A thread then advances its four
 * pieces together.  Where the CPU has AVX2, they are the four lanes of one
 * vector (lanes): four consecutive samples of each piece are loaded and
 * the 4x4 block transposed, so that one packed multiply or add makes one
 * chain step in every piece; packed and scalar operations round alike.
 * The special-value test runs on each lane's bits, and only a flagged
 * lane takes the literal form.  The outputs are transposed back, weighted
 * in address order and stored.  A descending load holds its samples in
 * reverse lane order, so the rows are stepped from the last.  Elsewhere,
 * or for the samples left over after whole blocks of four, the pieces run
 * as four scalar chains interleaved in one loop.  sweep_vector says which
 * form runs: set once, when the library loads, from the CPU's features.
 *
 * After the join the caller compares each guess in order with the bits of
 * the true end state of the piece before it.  Equal, it keeps the piece,
 * whose samples are then the serial recurrence's (that state and the
 * inputs fix every later bit); otherwise it redoes the piece from that
 * state, reading the piece's saved inputs, and the redone end state is
 * the truth for the next comparison.  Either way every output has the
 * bits of the serial sweep.  A piece from sample i to sample j writes
 * samples i-1..j-1, so the pieces write disjoint samples until the join,
 * after which the caller writes sample 0 and the wrap pair.  The last
 * input of each piece is read before the helper starts, as the next
 * piece's first write may overwrite it before its own piece reads it.  In
 * place, pieces 1-7 keep their inputs for a redo, and the K inputs before
 * piece 4 are copied first, as piece 3 overwrites them while the helper's
 * warm-up reads them: n - 2 - (n-2)/8 + K doubles in all, about 7n/8.  Any
 * other case, or a failed malloc, affinity or pthread_create, runs the
 * whole sweep serially.  sweep_splits and sweep_fallbacks count the split
 * sweeps and those of them in which a piece was redone.
 *
 * sweep_asc/sweep_desc sweep v in place.  The term forms read the samples
 * from src (v itself when src is NULL) and, when weighted, store
 * (base ? base[j] : 0.0) + w*value in place of each value: the bits of
 * numpy's multiply then add, summing from 0.0 when there is no base.
 * Every sample is read before any is written, so src == v is an in-place
 * sweep; base must not overlap v.  asc and split are compiled once, with
 * the direction, src, base and weighting read at run time; only the hot
 * loops, lanes_avx2 and advance, are expanded per direction and form.
 *
 * Build with -ffp-contract=off (a fused multiply-add changes the bits),
 * -pthread and -lm; no -march flag is needed, as only lanes is compiled
 * for AVX2 and it runs only where the CPU has it.  Callers pass
 * C-contiguous float64 arrays of n >= 3 samples.
 */

#if defined(__linux__)
#define _GNU_SOURCE
#include <math.h>
#include <pthread.h>
#include <sched.h>
#include <stdlib.h>
#endif
#include <stdatomic.h>
#include <stdint.h>
#include <string.h>

#if defined(__GNUC__)
#define BODY static inline __attribute__((always_inline))
#else
#define BODY static inline
#endif

#if defined(__linux__) && defined(__x86_64__) && defined(__GNUC__)
#include <immintrin.h>
#define LANES 1
#define VECTOR __attribute__((target("avx2")))
#endif

atomic_long sweep_splits, sweep_fallbacks;
int sweep_vector;       /* 1: split sweeps advance each thread's pieces as AVX2 lanes */

#if LANES
__attribute__((constructor)) static void choose_form(void)
{
    __builtin_cpu_init();
    sweep_vector = __builtin_cpu_supports("avx2") != 0;
}
#endif

/* the chain state after star y of input sample x, recurrence coefficient b */
BODY double next_z(double x, double b, double y)
{
    double z = b * y;
    uint64_t bits;
    memcpy(&bits, &z, sizeof bits);
    if ((bits << 1) - 2 >= 0xffdffffffffffffeu)    /* b*y is +-0, +-inf or nan */
        z = 0.0 * x - (-b) * y;
    return z;
}

/* value, or base[j] + w*value when weighted (0.0 + w*value without a base) */
BODY double out(double value, const double *base, long j, double w, int weighted)
{
    return weighted ? (base ? base[j] : 0.0) + w * value : value;
}

/* x advanced by j samples, or NULL for a NULL x */
BODY const double *at(const double *x, long j)
{
    return x ? x + j : 0;
}

/* the chain after sample i: y = star_i, and z, which star_{i+1} adds to a*x_{i+1} */
struct chain {
    double y, z;
};

/* a run of ring samples: the chain before its next sample i, and where x_i is read (q),
 * the second touch of sample i-1 stored (p, with base o; NULL: not stored) and x_i kept
 * (save; NULL: not kept) */
struct piece {
    struct chain c;
    double *p, *save;
    const double *q, *o;
};

/* sample i of piece s, k samples on from where s points: read x_i and, unless p is NULL,
 * store its pair's second touch of sample i-1, a*star_{i-1} + l*x_i (weighted by out);
 * with save, keep x_i */
BODY void link(struct piece *s, long k, long step, double a, double b, double l, double w,
               int weighted)
{
    double star_prev = s->c.y, x = s->q[step * k];
    s->c.y = s->c.z + a * x;            /* star_i */
    s->c.z = next_z(x, b, s->c.y);
    if (s->save)
        s->save[step * k] = x;
    if (s->p)
        s->p[step * (k - 1)] = out(a * star_prev + l * x, s->o, step * (k - 1), w, weighted);
}

/* s moved on by count samples (from ring sample 0 of each array: to sample count) */
BODY struct piece moved(struct piece s, long count, long step)
{
    return (struct piece){s.c, s.p ? s.p + step * count : 0, s.save ? s.save + step * count : 0,
                          s.q + step * count, at(s.o, step * count)};
}

/* count samples of each of the chains (1 or 4) pieces at s, interleaved, moving them on */
BODY void segment(struct piece *s, int chains, long count, long step, double a, double b,
                  double l, double w, int weighted)
{
    struct piece u[4];
    for (int j = 0; j < chains; j++)
        u[j] = s[j];
    for (long k = 0; k < count; k++) {
        link(&u[0], k, step, a, b, l, w, weighted);
        if (chains == 4) {
            link(&u[1], k, step, a, b, l, w, weighted);
            link(&u[2], k, step, a, b, l, w, weighted);
            link(&u[3], k, step, a, b, l, w, weighted);
        }
    }
    for (int j = 0; j < chains; j++)
        s[j] = moved(u[j], count, step);
}

#if defined(__linux__)
/* one thread's four consecutive pieces of a split sweep, each len samples but the last,
 * which runs rest samples more; pieces from and on start from their warm-ups */
struct share {
    struct piece s[4], guess[4];        /* guess[j]: the warm-up of s[j] */
    double last[4];                     /* x at the len-th sample of each piece */
    long len, rest, k, step;
    double a, b, l, w;
    int weighted, from;
};

#if LANES
/* the 4x4 block of doubles r, rows and columns exchanged */
VECTOR BODY void transpose(__m256d *r)
{
    __m256d t0 = _mm256_unpacklo_pd(r[0], r[1]), t1 = _mm256_unpackhi_pd(r[0], r[1]);
    __m256d t2 = _mm256_unpacklo_pd(r[2], r[3]), t3 = _mm256_unpackhi_pd(r[2], r[3]);
    r[0] = _mm256_permute2f128_pd(t0, t2, 0x20);
    r[1] = _mm256_permute2f128_pd(t1, t3, 0x20);
    r[2] = _mm256_permute2f128_pd(t0, t2, 0x31);
    r[3] = _mm256_permute2f128_pd(t1, t3, 0x31);
}

/* 4*blocks samples of each of the 4 pieces at s, advanced as the lanes of one vector: each
 * chain step is link's, lane by lane; warm: the pieces store and keep nothing */
VECTOR BODY void lanes(struct piece *s, long blocks, long step, double a, double b, double l,
                       double w, int weighted, int warm)
{
    const __m256d va = _mm256_set1_pd(a), vb = _mm256_set1_pd(b), vl = _mm256_set1_pd(l);
    const __m256d vw = _mm256_set1_pd(w), minus_b = _mm256_set1_pd(-b);
    const __m256d zero = _mm256_setzero_pd();
    /* next_z's unsigned compare, made signed by adding 2^63 to both sides */
    const __m256i shift = _mm256_set1_epi64x(0x7ffffffffffffffe);
    const __m256i above = _mm256_set1_epi64x(0x7fdffffffffffffd);
    __m256d y = _mm256_setr_pd(s[0].c.y, s[1].c.y, s[2].c.y, s[3].c.y);
    __m256d z = _mm256_setr_pd(s[0].c.z, s[1].c.z, s[2].c.z, s[3].c.z);
    const double *q[4], *o[4];
    double *p[4], *save[4];
    for (int j = 0; j < 4; j++) {
        q[j] = s[j].q, o[j] = s[j].o, p[j] = s[j].p, save[j] = s[j].save;
    }
    for (long m = 0; m < blocks; m++) {
        /* the block's 4 samples start k from where each piece points, in address order;
         * transposed, row r of x holds address k + r of each piece, which is sample 4m + r
         * ascending and 4m + 3 - r descending */
        long k = step > 0 ? 4 * m : -4 * m - 3;
        __m256d x[4], v[4];
#pragma GCC unroll 4
        for (int j = 0; j < 4; j++) {
            x[j] = _mm256_loadu_pd(q[j] + k);
            if (!warm && save[j])
                _mm256_storeu_pd(save[j] + k, x[j]);
        }
        transpose(x);
#pragma GCC unroll 4
        for (int i = 0; i < 4; i++) {
            int r = step > 0 ? i : 3 - i;
            __m256d star_prev = y;
            y = _mm256_add_pd(z, _mm256_mul_pd(va, x[r]));
            z = _mm256_mul_pd(vb, y);
            __m256i bits = _mm256_castpd_si256(z);
            __m256d flag = _mm256_castsi256_pd(_mm256_cmpgt_epi64(
                _mm256_add_epi64(_mm256_slli_epi64(bits, 1), shift), above));
            if (_mm256_movemask_pd(flag))
                z = _mm256_blendv_pd(z, _mm256_sub_pd(_mm256_mul_pd(zero, x[r]),
                                                      _mm256_mul_pd(minus_b, y)), flag);
            if (!warm)
                v[r] = _mm256_add_pd(_mm256_mul_pd(va, star_prev), _mm256_mul_pd(vl, x[r]));
        }
        if (warm)
            continue;
        /* the second touches of samples 4m-1..4m+2, one address before the loads */
        transpose(v);
#pragma GCC unroll 4
        for (int j = 0; j < 4; j++) {
            if (weighted)
                v[j] = _mm256_add_pd(o[j] ? _mm256_loadu_pd(o[j] + k - step) : zero,
                                     _mm256_mul_pd(vw, v[j]));
            _mm256_storeu_pd(p[j] + k - step, v[j]);
        }
    }
    double ys[4], zs[4];
    _mm256_storeu_pd(ys, y);
    _mm256_storeu_pd(zs, z);
    for (int j = 0; j < 4; j++) {
        s[j].c = (struct chain){ys[j], zs[j]};
        s[j] = moved(s[j], 4 * blocks, step);
    }
}

/* lanes, expanded per direction and per form of store: none for warm-ups, which store
 * nothing (p is NULL) */
VECTOR static void lanes_avx2(struct piece *s, long blocks, const struct share *t)
{
    double a = t->a, b = t->b, l = t->l, w = t->w;
    int warm = !s[0].p;
    if (t->step > 0)
        warm ? lanes(s, blocks, 1, a, b, l, w, 0, 1)
            : t->weighted ? lanes(s, blocks, 1, a, b, l, w, 1, 0)
                          : lanes(s, blocks, 1, a, b, l, w, 0, 0);
    else
        warm ? lanes(s, blocks, -1, a, b, l, w, 0, 1)
            : t->weighted ? lanes(s, blocks, -1, a, b, l, w, 1, 0)
                          : lanes(s, blocks, -1, a, b, l, w, 0, 0);
}
#endif

/* count samples of the 4 pieces at s of share t, in whole blocks of lanes in the vector
 * form and the rest as interleaved chains */
static void advance(struct piece *s, long count, const struct share *t)
{
    double a = t->a, b = t->b, l = t->l, w = t->w;
#if LANES
    if (sweep_vector) {
        lanes_avx2(s, count / 4, t);
        count %= 4;
    }
#endif
    if (t->step > 0)
        t->weighted ? segment(s, 4, count, 1, a, b, l, w, 1)
                    : segment(s, 4, count, 1, a, b, l, w, 0);
    else
        t->weighted ? segment(s, 4, count, -1, a, b, l, w, 1)
                    : segment(s, 4, count, -1, a, b, l, w, 0);
}

/* warm up the pieces of share t, then run them, their len-th inputs read from t->last */
static void *run_share(void *arg)
{
    struct share *t = arg;
    advance(t->guess, t->k, t);
    for (int j = t->from; j < 4; j++)
        t->s[j].c = t->guess[j].c;
    advance(t->s, t->len - 1, t);
    struct piece end[4];
    for (int j = 0; j < 4; j++) {
        end[j] = t->s[j];
        end[j].q = &t->last[j];
    }
    segment(end, 4, 1, t->step, t->a, t->b, t->l, t->w, t->weighted);
    for (int j = 0; j < 4; j++) {
        t->s[j] = moved(t->s[j], 1, t->step);
        t->s[j].c = end[j].c;
    }
    segment(t->s + 3, 1, t->rest, t->step, t->a, t->b, t->l, t->w, t->weighted);
    return 0;
}

/* the CPUs the helper may run on: the caller's allowed ones but its current one; 0 if none */
static int helper_cpus(cpu_set_t *cpus)
{
    int cpu = sched_getcpu();
    if (cpu < 0 || sched_getaffinity(0, sizeof *cpus, cpus) != 0)
        return 0;
    if (cpu < CPU_SETSIZE)
        CPU_CLR(cpu, cpus);
    return CPU_COUNT(cpus) > 0;
}

/* where buf, holding ring samples lo..hi in the field's address order, holds sample i */
BODY double *slot(double *buf, long i, long lo, long hi, long step)
{
    return buf + (step > 0 ? i - lo : hi - i);
}

/* samples 2..n-1 of asc from chain c on two threads; 0, having written nothing, without a split */
static int split(struct chain *c, double *p, const double *q, const double *o, int in_place,
                 long n, long step, double a, double b, double l, double w, int weighted)
{
    if (n < (1L << 17) || !(fabs(b) > 0.0 && fabs(b) < 1.0))
        return 0;
    double warmup = ceil(4 * 53 / -log2(fabs(b)));
    cpu_set_t cpus;
    if (!(warmup <= n / 8) || !helper_cpus(&cpus))
        return 0;
    long k = (long)warmup, len = (n - 2) / 8, first[9];     /* piece j: first[j].. */
    for (int j = 0; j < 8; j++)
        first[j] = 2 + j * len;
    first[8] = n;
    /* in place, keep holds the inputs of pieces 1..7, then a copy of the k samples before
     * piece 4, which piece 3 overwrites while the helper's warm-up reads them */
    long kept = n - first[1];
    double *keep = 0;
    if (in_place && !(keep = malloc((kept + k) * sizeof *keep)))
        return 0;
    /* the caller's pieces 0..3 and the helper's 4..7; piece 0 starts from c, and its lane
     * warms up over piece 1's warm-up samples (K <= n/8 keeps those at ring sample 1 or on),
     * a guess that is never used */
    struct share t[2];
    for (int h = 0; h < 2; h++) {
        t[h] = (struct share){.len = len, .rest = h ? n - 2 - 8 * len : 0, .k = k,
                              .step = step, .a = a, .b = b, .l = l, .w = w,
                              .weighted = weighted, .from = !h};
        for (int i = 0; i < 4; i++) {
            int j = 4 * h + i;
            struct piece *s = &t[h].s[i];
            *s = moved((struct piece){*c, p, 0, q, o}, first[j], step);
            s->save = j && keep ? slot(keep, first[j], first[1], n - 1, step) : 0;
            t[h].guess[i] = moved((struct piece){{0.0, 0.0}, 0, 0, q, 0},
                                  first[j ? j : 1] - k, step);
            t[h].last[i] = q[step * (first[j] + len - 1)];
        }
    }
    if (keep) {
        long lo = first[4] - k, hi = first[4] - 1;
        memcpy(keep + kept, q + step * (step > 0 ? lo : hi), k * sizeof *keep);
        t[1].guess[0].q = slot(keep + kept, lo, lo, hi, step);
    }
    pthread_attr_t attr;
    pthread_t helper;
    int started = pthread_attr_init(&attr) == 0;
    if (started) {
        started = pthread_attr_setaffinity_np(&attr, sizeof cpus, &cpus) == 0
                  && pthread_create(&helper, &attr, run_share, &t[1]) == 0;
        pthread_attr_destroy(&attr);
    }
    if (!started) {
        free(keep);
        return 0;
    }
    atomic_fetch_add_explicit(&sweep_splits, 1, memory_order_relaxed);
    run_share(&t[0]);
    pthread_join(helper, 0);
    /* piece j is kept when its guess is the true end state of the piece before it, and
     * otherwise redone from that state, reading its saved inputs in place */
    int redone = 0;
    *c = t[0].s[0].c;
    for (int j = 1; j < 8; j++) {
        if (memcmp(c, &t[j / 4].guess[j % 4].c, sizeof *c) == 0) {
            *c = t[j / 4].s[j % 4].c;
            continue;
        }
        redone = 1;
        struct piece r = moved((struct piece){*c, p, 0, q, o}, first[j], step);
        if (keep)
            r.q = slot(keep, first[j], first[1], n - 1, step);
        segment(&r, 1, first[j + 1] - first[j], step, a, b, l, w, weighted);
        *c = r.c;
    }
    if (redone)
        atomic_fetch_add_explicit(&sweep_fallbacks, 1, memory_order_relaxed);
    free(keep);
    return 1;
}
#endif

/* pairs (0,1), (1,2), ..., (n-1,0) of the ring, or of its mirror when step = -1 */
static void asc(double *v, const double *src, const double *base, long n, long step,
                double a, double b, double l, double w, int weighted)
{
    long end = step > 0 ? 0 : n;
    double *p = v + end;
    const double *q = src + end;
    const double *o = at(base, end);
    double s0 = a * src[0] + l * q[step];
    double s1 = b * src[0] + a * q[step];
    struct chain c = {s1, b * s1};      /* star_1, and lfilter's initial state */
#if defined(__linux__)
    if (!split(&c, p, q, o, src == v, n, step, a, b, l, w, weighted))
#endif
    {
        struct piece s = moved((struct piece){c, p, 0, q, o}, 2, step);
        segment(&s, 1, n - 2, step, a, b, l, w, weighted);
        c = s.c;
    }
    v[0] = out(b * c.y + a * s0, base, 0, w, weighted);
    p[step * (n - 1)] = out(a * c.y + l * s0, o, step * (n - 1), w, weighted);   /* wrap pair */
}

void sweep_asc(double *v, long n, double a, double b, double l)
{
    asc(v, v, 0, n, 1, a, b, l, 1.0, 0);
}

void sweep_desc(double *v, long n, double a, double b, double l)
{
    asc(v, v, 0, n, -1, a, l, b, 1.0, 0);
}

void sweep_asc_term(double *v, const double *src, const double *base, long n,
                    double a, double b, double l, double w, int weighted)
{
    asc(v, src ? src : v, base, n, 1, a, b, l, w, weighted);
}

void sweep_desc_term(double *v, const double *src, const double *base, long n,
                     double a, double b, double l, double w, int weighted)
{
    asc(v, src ? src : v, base, n, -1, a, l, b, w, weighted);
}
