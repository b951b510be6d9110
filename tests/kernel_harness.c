/* The C sweep kernel under the sanitizers: split sweeps against a serial run, bit for bit.
 *
 * Build and run it under each sanitizer set (CI does both):
 *
 *   cc -O2 -g -fno-omit-frame-pointer -ffp-contract=off -pthread \
 *      -fsanitize=address,undefined -fno-sanitize-recover=all \
 *      tests/kernel_harness.c -lm -o kernel-harness && ./kernel-harness
 *   cc -O2 -g -fno-omit-frame-pointer -ffp-contract=off -pthread -fsanitize=thread \
 *      tests/kernel_harness.c -lm -o kernel-harness
 *   TSAN_OPTIONS=halt_on_error=1 ./kernel-harness
 *
 * It includes _sweep.c, so it tests the kernel's own code, with its static helpers, and
 * needs Linux and two allowed CPUs.  Each case runs one sweep three ways on fresh copies
 * of the same inputs: serially, with the harness's affinity set to one CPU (the kernel
 * never splits there), and split on two threads in each lane form the CPU offers
 * (sweep_vector: the scalar chains, and the AVX2 lanes where the CPU has AVX2).  The
 * split outputs must equal the serial ones bit for bit and leave src and base untouched,
 * and the kernel's counters must show the split and the redos the case expects.  Every
 * array is its own allocation of exactly n doubles, so AddressSanitizer sees a read past
 * either end.  The cases are:
 *   - N = 2^17 .. 2^17 + 31, which gives every count (0..7) of remainder samples of the
 *     last piece and every count (0..3) of samples left after whole blocks of four in the
 *     runs, at recurrence coefficients whose warm-ups leave every count of such samples;
 *   - N = 2^17 - 1 (no split), and the warm-up K = N/8 (split, its first warm-up starting
 *     at ring sample 1) and K = N/8 + 1 (no split);
 *   - the redo bands of tests/test_sweep.py::TestSplitSweep, which make the guessed state
 *     differ at every piece boundary: each piece after one is redone from saved inputs;
 *   - N = 999,983 and 10^6, and a 2^20 field whose middle third is exact zeros, where the
 *     chain settles on a subnormal fixed point that no guess from zeros sees;
 * each in both directions and in the forms: in place, in place weighted on a base, out of
 * place, and weighted out of place with and without a base.
 *
 * It exits 0 when every case holds and 1 on the first mismatch; a sanitizer report ends it
 * with the sanitizer's own nonzero exit.
 */

#include "../src/sweepfd/_sweep.c"

#include <stdio.h>

#if !defined(__linux__)
#error "the split sweep runs on Linux only"
#endif

#define SPLIT_MIN (1L << 17)
#define ANY (-1)                /* a case whose redo count is not fixed */

enum form { IN_PLACE, IN_PLACE_WEIGHTED, OUT_OF_PLACE, WEIGHTED, WEIGHTED_ON_BASE, FORMS };

static const char *const form_name[FORMS] = {
    "in place", "in place weighted on a base", "out of place", "weighted out of place",
    "weighted out of place on a base"};

/* one sweep: what it reads and how it runs; rec is the recurrence coefficient, as b
 * ascending and as l descending */
struct sweep_case {
    const char *label;
    long n;
    double a, rec;
    int desc, split, redone;    /* redone: 1, 0 or ANY split sweeps with a redo */
    enum form form;
    const double *ring;         /* ring samples 0..n-1 of the input */
};

static cpu_set_t all_cpus, one_cpu;
static int failures, cases;

static uint64_t rng = 0x9e3779b97f4a7c15u;

/* uniform in [-1, 1), from xorshift64* */
static double noise(void)
{
    rng ^= rng >> 12, rng ^= rng << 25, rng ^= rng >> 27;
    return (double)((rng * 0x2545f4914f6cdd1du) >> 11) * 0x1p-52 - 1.0;
}

static double *doubles(long n)
{
    double *x = malloc(n * sizeof *x);
    if (!x) {
        fprintf(stderr, "out of memory for %ld doubles\n", n);
        exit(2);
    }
    return x;
}

/* the kernel's warm-up length for recurrence coefficient b */
static double warmup(double b)
{
    return ceil(4 * 53 / -log2(fabs(b)));
}

/* the coefficient nearest below 1 whose warm-up is k samples */
static double coefficient_for_warmup(long k)
{
    double b = exp2(-4 * 53 / (k - 0.5));
    if (warmup(b) != k) {
        fprintf(stderr, "no coefficient found for a warm-up of %ld samples\n", k);
        exit(2);
    }
    return b;
}

static void set_cpus(const cpu_set_t *cpus)
{
    if (sched_setaffinity(0, sizeof *cpus, cpus) != 0) {
        perror("sched_setaffinity");
        exit(2);
    }
}

/* the input in the field's address order: a descending sweep reads the mirrored ring */
static void fill(double *x, const struct sweep_case *c)
{
    for (long i = 0; i < c->n; i++)
        x[c->desc && i ? c->n - i : i] = c->ring[i];
}

/* run case c on v, from src and base as its form asks */
static void run(const struct sweep_case *c, double *v, const double *src, const double *base)
{
    double a = c->a, b = c->rec, l = 0.8 * c->rec, w = 0.375;
    if (c->desc)
        b = 0.8 * c->rec, l = c->rec;
    void (*in_place)(double *, long, double, double, double) = c->desc ? sweep_desc : sweep_asc;
    void (*term)(double *, const double *, const double *, long, double, double, double,
                 double, int) = c->desc ? sweep_desc_term : sweep_asc_term;
    switch (c->form) {
    case IN_PLACE:
        in_place(v, c->n, a, b, l);
        break;
    case IN_PLACE_WEIGHTED:
        term(v, 0, base, c->n, a, b, l, w, 1);
        break;
    case OUT_OF_PLACE:
        term(v, src, 0, c->n, a, b, l, 0.0, 0);
        break;
    case WEIGHTED:
        term(v, src, 0, c->n, a, b, l, w, 1);
        break;
    default:
        term(v, src, base, c->n, a, b, l, w, 1);
    }
}

struct buffers {
    double *v, *src, *base;
};

static struct buffers prepared(const struct sweep_case *c, const double *input,
                               const double *base)
{
    struct buffers x = {doubles(c->n), doubles(c->n), doubles(c->n)};
    memcpy(x.src, input, c->n * sizeof *input);
    if (c->form == IN_PLACE || c->form == IN_PLACE_WEIGHTED)
        memcpy(x.v, input, c->n * sizeof *input);
    else
        for (long i = 0; i < c->n; i++)
            x.v[i] = -0.0;     /* what the sweep overwrites unread */
    memcpy(x.base, base, c->n * sizeof *base);
    return x;
}

static void release(struct buffers x)
{
    free(x.v), free(x.src), free(x.base);
}

static void fail(const struct sweep_case *c, int vector, const char *what, long at)
{
    failures++;
    fprintf(stderr, "FAIL %s: n = %ld, rec = %.17g, %s, %s, lanes %s: %s", c->label, c->n,
            c->rec, c->desc ? "descending" : "ascending", form_name[c->form],
            vector ? "AVX2" : "scalar", what);
    if (at >= 0)
        fprintf(stderr, " at sample %ld", at);
    fputc('\n', stderr);
}

static long first_difference(const double *x, const double *y, long n)
{
    for (long i = 0; i < n; i++)
        if (memcmp(x + i, y + i, sizeof *x))
            return i;
    return -1;
}

/* case c, serially and split in each lane form up to vectors, checked against the serial */
static void check(const struct sweep_case *c, int vectors)
{
    double *input = doubles(c->n), *base = doubles(c->n);
    fill(input, c);
    for (long i = 0; i < c->n; i++)
        base[i] = noise();
    struct buffers serial = prepared(c, input, base);
    set_cpus(&one_cpu);
    long splits = atomic_load(&sweep_splits);
    run(c, serial.v, serial.src, serial.base);
    if (atomic_load(&sweep_splits) != splits)
        fail(c, 0, "the sweep split on one allowed CPU", -1);
    set_cpus(&all_cpus);
    for (int vector = 0; vector <= vectors; vector++) {
        sweep_vector = vector;
        struct buffers x = prepared(c, input, base);
        long redos = atomic_load(&sweep_fallbacks);
        splits = atomic_load(&sweep_splits);
        run(c, x.v, x.src, x.base);
        cases++;
        long split = atomic_load(&sweep_splits) - splits;
        long redone = atomic_load(&sweep_fallbacks) - redos;
        long at = first_difference(x.v, serial.v, c->n);
        if (split != c->split)
            fail(c, vector, c->split ? "the sweep did not split" : "the sweep split", -1);
        else if (c->redone != ANY && redone != c->redone)
            fail(c, vector, c->redone ? "no piece was redone" : "a piece was redone", -1);
        if (at >= 0)
            fail(c, vector, "the split output differs from the serial one", at);
        if (memcmp(x.src, input, c->n * sizeof *input))
            fail(c, vector, "the sweep wrote to its source", -1);
        if (memcmp(x.base, base, c->n * sizeof *base))
            fail(c, vector, "the sweep wrote to its base", -1);
        release(x);
        if (failures)
            exit(1);
    }
    release(serial);
    free(input), free(base);
}

/* case c in both directions, in form (or every form for FORMS) */
static void both_ways(struct sweep_case c, enum form form, int vectors)
{
    enum form from = form == FORMS ? 0 : form, to = form == FORMS ? FORMS : form + 1;
    for (c.desc = 0; c.desc < 2; c.desc++)
        for (c.form = from; c.form < to; c.form++)
            check(&c, vectors);
}

static double *noise_ring(long n)
{
    double *ring = doubles(n);
    for (long i = 0; i < n; i++)
        ring[i] = noise();
    return ring;
}

int main(void)
{
    if (sched_getaffinity(0, sizeof all_cpus, &all_cpus) != 0 || CPU_COUNT(&all_cpus) < 2) {
        fprintf(stderr, "the split sweep needs two allowed CPUs\n");
        return 2;
    }
    CPU_ZERO(&one_cpu);
    for (int cpu = 0; cpu < CPU_SETSIZE; cpu++)
        if (CPU_ISSET(cpu, &all_cpus)) {
            CPU_SET(cpu, &one_cpu);
            break;
        }
    int vectors = sweep_vector;     /* the AVX2 lanes run only where the kernel chose them */
    printf("lane forms: scalar%s\n", vectors ? " and AVX2" : "");

    /* remainders: the warm-ups K = 212, 437, 342, 123, 288, 905 and 2865 leave 0, 1, 2, 3,
     * 0, 1 and 1 samples after whole blocks of four */
    const double recs[] = {0.5, 0.714, 0.65, 0.3, -0.6, -0.85, 0.95};
    int nrecs = sizeof recs / sizeof *recs;
    for (long d = 0; d < 32; d++) {
        long n = SPLIT_MIN + d;
        double *ring = noise_ring(n);
        struct sweep_case c = {"remainders", n, 0.6, recs[d % nrecs], 0, 1, 0, IN_PLACE, ring};
        both_ways(c, (enum form)(d % FORMS), vectors);
        free(ring);
    }
    printf("remainders: N = 2^17 .. 2^17 + 31 hold\n");

    /* thresholds */
    {
        double *ring = noise_ring(SPLIT_MIN);
        both_ways((struct sweep_case){"below 2^17", SPLIT_MIN - 1, 0.6, 0.5, 0, 0, 0, IN_PLACE,
                                      ring}, FORMS, vectors);
        both_ways((struct sweep_case){"K = N/8", SPLIT_MIN, 0.6,
                                      coefficient_for_warmup(SPLIT_MIN / 8), 0, 1, 0, IN_PLACE,
                                      ring}, FORMS, vectors);
        both_ways((struct sweep_case){"K = N/8 + 1", SPLIT_MIN, 0.6,
                                      coefficient_for_warmup(SPLIT_MIN / 8 + 1), 0, 0, 0,
                                      IN_PLACE, ring}, FORMS, vectors);
        both_ways((struct sweep_case){"b = 0", SPLIT_MIN, 0.6, 0.0, 0, 0, 0, IN_PLACE, ring},
                  IN_PLACE, vectors);
        free(ring);
    }
    printf("thresholds: N = 2^17 - 1, K = N/8 and N/8 + 1, b = 0 hold\n");

    /* redo bands, in eighths of n: (0, 0) is the large chain up to the middle */
    const int bands[][2] = {{0, 0}, {2, 2}, {4, 4}, {6, 6}, {2, 4}, {1, 1}, {3, 3},
                            {5, 5}, {7, 7}, {1, 3}, {5, 7}};
    for (unsigned k = 0; k < sizeof bands / sizeof *bands; k++) {
        long n = SPLIT_MIN;
        double *ring = doubles(n);
        if (!bands[k][0]) {
            for (long i = 0; i < n; i++)
                ring[i] = i < n / 2 - 1000 ? 1e300 : 1e-300;
        } else {
            long lo = bands[k][0] * n / 8 - 3000, hi = bands[k][1] * n / 8 + 1000;
            for (long i = 0; i < n; i++)
                ring[i] = i >= lo - 1000 && i < lo ? 1e300 : i >= lo && i < hi ? 1e-300
                                                                             : noise();
        }
        both_ways((struct sweep_case){"redo band", n, 0.5, 0.5, 0, 1, 1, IN_PLACE, ring},
                  FORMS, vectors);
        free(ring);
    }
    printf("redo bands: all 11 hold\n");

    /* large fields */
    {
        long n = 1000000;
        double *ring = noise_ring(n);
        both_ways((struct sweep_case){"large", 999983, 0.6, 0.714, 0, 1, 0, IN_PLACE, ring},
                  IN_PLACE, vectors);
        both_ways((struct sweep_case){"large", n, 0.6, -0.6, 0, 1, 0, WEIGHTED_ON_BASE, ring},
                  WEIGHTED_ON_BASE, vectors);
        free(ring);
        n = 1L << 20;
        ring = noise_ring(n);
        for (long i = n / 3; i < 2 * n / 3; i++)
            ring[i] = 0.0;
        both_ways((struct sweep_case){"zero run", n, 0.6, 0.714, 0, 1, ANY, IN_PLACE, ring},
                  IN_PLACE, vectors);
        both_ways((struct sweep_case){"zero run", n, 0.6, 0.714, 0, 1, ANY, WEIGHTED, ring},
                  WEIGHTED, vectors);
        free(ring);
    }
    printf("large fields: N = 999,983, 10^6 and a 2^20 field with a zero run hold\n");
    printf("%d runs on two threads checked, %ld split, %ld with a redo: all have the serial bits\n",
           cases, atomic_load(&sweep_splits), atomic_load(&sweep_fallbacks));
    return 0;
}
