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
 * nans of another sign than lfilter's.  The second touch of sample j is
 * written as soon as the chain has read u_{j+1} (ascending) or u_{j-1}
 * (descending), so no temporary array is needed.
 *
 * sweep_asc/sweep_desc sweep v in place.  The term forms read the samples
 * from src (v itself when src is NULL) and, when weighted, store
 * (base ? base[j] : 0.0) + w*value in place of each value: the bits of
 * numpy's multiply then add, summing from 0.0 when there is no base.
 * Every sample is read before any is written, so src == v is an in-place
 * sweep; base must not overlap v.  Both forms expand one body per
 * direction, specialised by their constant arguments.
 *
 * Build with -ffp-contract=off: a fused multiply-add changes the bits.
 * Callers pass C-contiguous float64 arrays of n >= 3 samples.
 */

#if defined(__GNUC__)
#define BODY static inline __attribute__((always_inline))
#else
#define BODY static inline
#endif

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

/* pairs (0,1), (1,2), ..., (n-1,0) */
BODY void asc(double *v, const double *src, const double *base, long n,
              double a, double b, double l, double w, int weighted)
{
    double s0 = a * src[0] + l * src[1];
    double s1 = b * src[0] + a * src[1];
    double z = b * s1;
    double x = src[2];
    double y = z + a * x;               /* star_2 */
    z = next_z(x, b, y);
    v[1] = out(a * s1 + l * x, base, 1, w, weighted);
    for (long j = 3; j < n; j++) {
        double star_prev = y;
        x = src[j];
        y = z + a * x;                  /* star_j */
        z = next_z(x, b, y);
        v[j - 1] = out(a * star_prev + l * x, base, j - 1, w, weighted);
    }
    v[0] = out(b * y + a * s0, base, 0, w, weighted);
    v[n - 1] = out(a * y + l * s0, base, n - 1, w, weighted);   /* wrap pair (n-1,0) */
}

/* pairs (n-1,0), (n-2,n-1), ..., (0,1) */
BODY void desc(double *v, const double *src, const double *base, long n,
               double a, double b, double l, double w, int weighted)
{
    double s0 = b * src[n - 1] + a * src[0];
    double sn = a * src[n - 1] + l * src[0];
    double z = l * sn;
    double x = src[n - 2];
    double y = z + a * x;               /* star_{n-2} */
    z = next_z(x, l, y);
    v[n - 1] = out(b * x + a * sn, base, n - 1, w, weighted);
    for (long j = n - 3; j >= 1; j--) {
        double star_prev = y;
        x = src[j];
        y = z + a * x;                  /* star_j */
        z = next_z(x, l, y);
        v[j + 1] = out(b * x + a * star_prev, base, j + 1, w, weighted);
    }
    v[1] = out(b * s0 + a * y, base, 1, w, weighted);         /* final pair (0,1) */
    v[0] = out(a * s0 + l * y, base, 0, w, weighted);
}

void sweep_asc(double *v, long n, double a, double b, double l)
{
    asc(v, v, 0, n, a, b, l, 1.0, 0);
}

void sweep_desc(double *v, long n, double a, double b, double l)
{
    desc(v, v, 0, n, a, b, l, 1.0, 0);
}

void sweep_asc_term(double *v, const double *src, const double *base, long n,
                    double a, double b, double l, double w, int weighted)
{
    if (!src)
        src = v;
    if (!weighted)
        asc(v, src, 0, n, a, b, l, w, 0);
    else if (base)
        asc(v, src, base, n, a, b, l, w, 1);
    else
        asc(v, src, 0, n, a, b, l, w, 1);
}

void sweep_desc_term(double *v, const double *src, const double *base, long n,
                     double a, double b, double l, double w, int weighted)
{
    if (!src)
        src = v;
    if (!weighted)
        desc(v, src, 0, n, a, b, l, w, 0);
    else if (base)
        desc(v, src, base, n, a, b, l, w, 1);
    else
        desc(v, src, 0, n, a, b, l, w, 1);
}
