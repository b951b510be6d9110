/* One periodic pair sweep: the compiled kernel behind sweep.sweep().
 *
 * Each function gives, sample for sample, the bits of the lfilter body in
 * sweep.py.  The starred chain (first touches) is the order-1
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
 * for one chain, or for two independent chains interleaved in one loop,
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
 * on.  Ring samples 2..n-1 are cut into four pieces of (n-2)/4 samples,
 * the last one taking the remainder.  The caller runs pieces 0 and 1 as
 * two chains interleaved in one loop; a helper thread, allowed every CPU
 * of that mask but the caller's current one, runs pieces 2 and 3 the same
 * way.  A second chain fills the issue slots that one chain's latency
 * leaves idle.  Each piece but piece 0 starts from the chain state
 * computed from a zero state over the K samples before it, and each
 * thread computes the warm-ups of its own pieces: the chain forgets its
 * start by a factor |b| per sample, so after K samples the guess is
 * normally the true state bit for bit.  After the join the caller
 * compares each guess in order with the bits of the true end state of the
 * piece before it.  Equal, it keeps the piece, whose samples are then the
 * serial recurrence's (that state and the inputs fix every later bit);
 * otherwise it redoes the piece from that state, reading the piece's
 * saved inputs, and the redone end state is the truth for the next
 * comparison.  Either way every output has the bits of the serial sweep.
 * A piece from sample i to sample j writes samples i-1..j-1, so the
 * threads write disjoint samples until the join, after which the caller
 * writes sample 0 and the wrap pair.  The last input of pieces 0-2 is read
 * before the helper starts, as the next piece's first write overwrites it
 * in place.  In place, pieces 1-3 keep their inputs for a redo, and the K
 * inputs before piece 2 are copied first, as piece 1 overwrites them while
 * the helper's warm-up reads them: n - 2 - (n-2)/4 + K doubles in all,
 * about 3n/4.  Any other case, or a failed malloc, affinity or
 * pthread_create, runs the whole sweep serially.  sweep_splits and
 * sweep_fallbacks count the split sweeps and those of them in which a
 * piece was redone.
 *
 * sweep_asc/sweep_desc sweep v in place.  The term forms read the samples
 * from src (v itself when src is NULL) and, when weighted, store
 * (base ? base[j] : 0.0) + w*value in place of each value: the bits of
 * numpy's multiply then add, summing from 0.0 when there is no base.
 * Every sample is read before any is written, so src == v is an in-place
 * sweep; base must not overlap v.  Each entry point expands its own copy
 * of asc, specialised by its constant arguments.
 *
 * Build with -ffp-contract=off (a fused multiply-add changes the bits),
 * -pthread and -lm.  Callers pass C-contiguous float64 arrays of n >= 3
 * samples.
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

atomic_long sweep_splits, sweep_fallbacks;

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

/* count samples of each of the chains (1 or 2) pieces at s, interleaved, moving them on */
BODY void segment(struct piece *s, int chains, long count, long step, double a, double b,
                  double l, double w, int weighted)
{
    struct piece u = s[0], v = s[chains - 1];
    for (long k = 0; k < count; k++) {
        link(&u, k, step, a, b, l, w, weighted);
        if (chains == 2)
            link(&v, k, step, a, b, l, w, weighted);
    }
    s[0] = moved(u, count, step);
    if (chains == 2)
        s[1] = moved(v, count, step);
}

#if defined(__linux__)
/* the helper thread's part of a split sweep: pieces 2 and 3 of ring samples 2..n-1 */
struct half {
    struct piece s[2], guess[2];        /* guess[j]: the warm-up of s[j] */
    double last;                        /* x at piece 2's last sample */
    long len, rest, k, step;            /* piece 2 has len samples, piece 3 len + rest */
    double a, b, l, w;
    int weighted;
};

/* warm up pieces 2 and 3 of h over k samples each, then run them from the guessed states;
 * expanded per weighting and per whether the pieces keep their inputs (saved) */
BODY void run_pieces(struct half *h, int weighted, int saved)
{
    struct piece s[2] = {h->s[0], h->s[1]};
    if (!saved)
        s[0].save = s[1].save = 0;
    segment(h->guess, 2, h->k, h->step, h->a, h->b, h->l, h->w, weighted);
    s[0].c = h->guess[0].c;
    s[1].c = h->guess[1].c;
    segment(s, 2, h->len - 1, h->step, h->a, h->b, h->l, h->w, weighted);
    s[0].q = &h->last;
    segment(s, 2, 1, h->step, h->a, h->b, h->l, h->w, weighted);
    segment(s + 1, 1, h->rest, h->step, h->a, h->b, h->l, h->w, weighted);
    h->s[0].c = s[0].c;
    h->s[1].c = s[1].c;
}

static void *run_half(void *arg)
{
    struct half *h = arg;
    int saved = h->s[0].save != 0;
    if (h->weighted)
        saved ? run_pieces(h, 1, 1) : run_pieces(h, 1, 0);
    else
        saved ? run_pieces(h, 0, 1) : run_pieces(h, 0, 0);
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
BODY int split(struct chain *c, double *p, const double *q, const double *o, int in_place,
               long n, long step, double a, double b, double l, double w, int weighted)
{
    if (n < (1L << 17) || !(fabs(b) > 0.0 && fabs(b) < 1.0))
        return 0;
    double warmup = ceil(4 * 53 / -log2(fabs(b)));
    cpu_set_t cpus;
    if (!(warmup <= n / 8) || !helper_cpus(&cpus))
        return 0;
    long k = (long)warmup, len = (n - 2) / 4;
    long first[5] = {2, 2 + len, 2 + 2 * len, 2 + 3 * len, n};     /* piece j: first[j].. */
    /* in place, keep holds the inputs of pieces 1..3, then a copy of the k samples before
     * piece 2, which piece 1 overwrites while the helper's warm-up reads them */
    long kept = n - first[1];
    double *keep = 0;
    if (in_place && !(keep = malloc((kept + k) * sizeof *keep)))
        return 0;
    struct piece s[4], guess[4];        /* guess[j]: the warm-up of piece j >= 1 */
    double last[3];
    for (int j = 0; j < 4; j++)
        s[j] = moved((struct piece){*c, p, 0, q, o}, first[j], step);
    for (int j = 1; j < 4; j++) {
        s[j].save = keep ? slot(keep, first[j], first[1], n - 1, step) : 0;
        guess[j] = moved((struct piece){{0.0, 0.0}, 0, 0, q, 0}, first[j] - k, step);
        last[j - 1] = q[step * (first[j] - 1)];    /* piece j's first write overwrites it */
    }
    if (keep) {
        long lo = first[2] - k, hi = first[2] - 1;
        memcpy(keep + kept, q + step * (step > 0 ? lo : hi), k * sizeof *keep);
        guess[2].q = slot(keep + kept, lo, lo, hi, step);
    }
    struct half h = {.s = {s[2], s[3]}, .guess = {guess[2], guess[3]}, .last = last[2],
                     .len = len, .rest = n - 2 - 4 * len, .k = k, .step = step, .a = a, .b = b,
                     .l = l, .w = w, .weighted = weighted};
    pthread_attr_t attr;
    pthread_t helper;
    int started = pthread_attr_init(&attr) == 0;
    if (started) {
        started = pthread_attr_setaffinity_np(&attr, sizeof cpus, &cpus) == 0
                  && pthread_create(&helper, &attr, run_half, &h) == 0;
        pthread_attr_destroy(&attr);
    }
    if (!started) {
        free(keep);
        return 0;
    }
    atomic_fetch_add_explicit(&sweep_splits, 1, memory_order_relaxed);
    segment(guess + 1, 1, k, step, a, b, l, w, weighted);
    s[1].c = guess[1].c;
    segment(s, 2, len - 1, step, a, b, l, w, weighted);
    s[0].q = &last[0];
    s[1].q = &last[1];
    segment(s, 2, 1, step, a, b, l, w, weighted);
    pthread_join(helper, 0);
    guess[2].c = h.guess[0].c;
    guess[3].c = h.guess[1].c;
    s[2].c = h.s[0].c;
    s[3].c = h.s[1].c;
    /* piece j is kept when its guess is the true end state of the piece before it, and
     * otherwise redone from that state, reading its saved inputs in place */
    int redone = 0;
    *c = s[0].c;
    for (int j = 1; j < 4; j++) {
        if (memcmp(c, &guess[j].c, sizeof *c) == 0) {
            *c = s[j].c;
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
BODY void asc(double *v, const double *src, const double *base, long n, long step,
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

/* the term forms: one copy of asc per weighting */
BODY void term(double *v, const double *src, const double *base, long n, long step,
               double a, double b, double l, double w, int weighted)
{
    if (!src)
        src = v;
    if (!weighted)
        asc(v, src, 0, n, step, a, b, l, w, 0);
    else if (base)
        asc(v, src, base, n, step, a, b, l, w, 1);
    else
        asc(v, src, 0, n, step, a, b, l, w, 1);
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
    term(v, src, base, n, 1, a, b, l, w, weighted);
}

void sweep_desc_term(double *v, const double *src, const double *base, long n,
                     double a, double b, double l, double w, int weighted)
{
    term(v, src, base, n, -1, a, l, b, w, weighted);
}
