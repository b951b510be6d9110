/* One periodic pair sweep: the compiled kernel behind sweep.sweep().
 *
 * Each function gives, sample for sample, the bits of the lfilter body in
 * sweep.py.  The starred chain (first touches) is the order-1
 * direct-form-II-transposed filter that scipy.signal.lfilter evaluates:
 * y = z + a*x, then z = 0.0*x - (-b)*y.  The chain carries z = b*y
 * instead, two dependent flops per sample rather than three.  The two
 * agree bit for bit whenever b*y is nonzero and not nan and x is finite:
 * then 0.0*x is a zero and adding a zero to b*y returns b*y.  Otherwise
 * (a signed zero, a nan, or x = +-inf) a rarely taken, well predicted
 * branch recomputes the literal form.  This covers every field without
 * a nan on entry; where two nans meet, the sign of the result depends on
 * code generation, so a nan written into the field beforehand may leave
 * nans of another sign than lfilter's.  The second touch of each sample is
 * written as soon as the chain has read the sample after it, so no
 * temporary array is needed.
 *
 * One body, segment, holds the recurrence, and asc runs it over the ring.
 * A descending sweep with (a, b, l) visits the pairs (n-1,0), (n-2,n-1),
 * ..., (0,1): it is the ascending sweep of the mirrored ring (u_0, u_{n-1},
 * ..., u_1) with b and l exchanged, which is why the recurrence
 * coefficient is b ascending and l descending.  So asc takes step = +1 or
 * -1 and addresses ring sample i >= 1 as p[step*i], with p at the start
 * (step = 1) or the end (step = -1) of each array; sample 0 stays [0].
 * Each product and sum of the mirrored sweep has the operands of the
 * descending recurrence, only in swapped order, and IEEE multiplication
 * and addition commute, so the bits are those of the descending sweep
 * written out.
 *
 * On Linux, a sweep of n >= 2^17 samples runs on two threads when
 * 0 < |b| < 1, the warm-up length K = ceil(4*53 / -log2|b|) is at most
 * n/8 and the caller's affinity mask holds a CPU besides the one it runs
 * on.  The caller runs ring samples 2..mid (mid = n/2); a helper thread,
 * allowed every CPU of that mask but the caller's current one, runs
 * samples mid+1..n-1.  The helper starts from the chain state after mid
 * as computed from a zero state over the K samples up to mid: the chain
 * forgets its start by a factor |b| per sample, so after K samples the
 * guess is normally the true state bit for bit.  After the join the
 * caller compares the bits of its own state after mid with that guess.
 * Equal, it keeps the helper's samples, which are then the serial
 * recurrence's (the state after mid and the inputs fix every later bit);
 * otherwise it restores the inputs the helper overwrote and runs samples
 * mid+1..n-1 itself.  Either way every output has the bits of the serial
 * sweep.  The helper writes only samples >= mid and the caller only
 * samples < mid until the join, after which the caller writes sample 0
 * and the wrap pair.  The caller reads x_mid before the helper starts, as
 * the helper's first write overwrites it in place, and in place the helper
 * keeps x_{mid+1}..x_{n-1} for a redo: n - n/2 doubles in all.  Any other
 * case, or a failed malloc, affinity or pthread_create, runs the whole
 * sweep serially.  sweep_splits and sweep_fallbacks count the split
 * sweeps and those of them whose helper half was redone.
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
#include <string.h>
#endif
#include <stdatomic.h>

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
    if (!(z != 0.0) || x - x != 0.0)    /* b*y is +-0 or nan, or x is not finite */
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

/* count samples of the chain from c, with p, q and o at the first one.  Sample i reads
 * x_i from q and, unless p is NULL, stores its pair's second touch of sample i-1,
 * a*star_{i-1} + l*x_i (weighted by out); with save, x_i is also kept in save[]. */
BODY struct chain segment(struct chain c, double *p, const double *q, const double *o,
                          double *save, long count, long step, double a, double b, double l,
                          double w, int weighted)
{
    for (long k = 0; k < count; k++) {
        double star_prev = c.y, x = q[step * k];
        c.y = c.z + a * x;              /* star_i */
        c.z = next_z(x, b, c.y);
        if (save)
            save[k] = x;
        if (p)
            p[step * (k - 1)] = out(a * star_prev + l * x, o, step * (k - 1), w, weighted);
    }
    return c;
}

#if defined(__linux__)
/* the helper thread's part of a split sweep: samples mid+1..n-1 */
struct half {
    struct chain c;
    double *p, *save;
    const double *q, *o;
    long count, step;
    double a, b, l, w;
    int weighted;
};

static void *run_half(void *arg)
{
    struct half *h = arg;
    h->c = segment(h->c, h->p, h->q, h->o, h->save, h->count, h->step, h->a, h->b, h->l, h->w,
                   h->weighted);
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
    long mid = n / 2, k = (long)warmup;
    /* the helper's start: the chain over the k samples up to mid from a zero state */
    struct chain guess = segment((struct chain){0.0, 0.0}, 0, q + step * (mid - k + 1), 0, 0, k,
                                 step, a, b, l, w, weighted);
    double x_mid = q[step * mid];       /* the helper's first write overwrites it in place */
    struct half h = {.c = guess, .p = p + step * (mid + 1), .q = q + step * (mid + 1),
                     .o = at(o, step * (mid + 1)), .count = n - 1 - mid, .step = step,
                     .a = a, .b = b, .l = l, .w = w, .weighted = weighted};
    if (in_place && !(h.save = malloc(h.count * sizeof *h.save)))
        return 0;
    pthread_attr_t attr;
    pthread_t helper;
    int started = pthread_attr_init(&attr) == 0;
    if (started) {
        started = pthread_attr_setaffinity_np(&attr, sizeof cpus, &cpus) == 0
                  && pthread_create(&helper, &attr, run_half, &h) == 0;
        pthread_attr_destroy(&attr);
    }
    if (!started) {
        free(h.save);
        return 0;
    }
    atomic_fetch_add_explicit(&sweep_splits, 1, memory_order_relaxed);
    *c = segment(*c, p + 2 * step, q + 2 * step, at(o, 2 * step), 0, mid - 2, step, a, b, l,
                 w, weighted);
    *c = segment(*c, p + step * mid, &x_mid, at(o, step * mid), 0, 1, step, a, b, l, w,
                 weighted);
    pthread_join(helper, 0);
    if (memcmp(c, &guess, sizeof guess) == 0) {
        *c = h.c;
    } else {
        atomic_fetch_add_explicit(&sweep_fallbacks, 1, memory_order_relaxed);
        for (long j = 0; in_place && j < h.count; j++)
            h.p[step * j] = h.save[j];
        *c = segment(*c, h.p, h.q, h.o, 0, h.count, step, a, b, l, w, weighted);
    }
    free(h.save);
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
        c = segment(c, p + 2 * step, q + 2 * step, at(o, 2 * step), 0, n - 2, step, a, b, l,
                    w, weighted);
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
