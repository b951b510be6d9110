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
 * One body, asc, holds the recurrence.  A descending sweep with (a, b, l)
 * visits the pairs (n-1,0), (n-2,n-1), ..., (0,1): it is the ascending
 * sweep of the mirrored ring (u_0, u_{n-1}, ..., u_1) with b and l
 * exchanged, which is why the recurrence coefficient is b ascending and l
 * descending.  So asc takes step = +1 or -1 and addresses ring sample
 * i >= 1 as p[step*i], with p at the start (step = 1) or the end
 * (step = -1) of each array; sample 0 stays [0].  Each product and sum of
 * the mirrored sweep has the operands of the descending recurrence, only
 * in swapped order, and IEEE multiplication and addition commute, so the
 * bits are those of the descending sweep written out.
 *
 * sweep_asc/sweep_desc sweep v in place.  The term forms read the samples
 * from src (v itself when src is NULL) and, when weighted, store
 * (base ? base[j] : 0.0) + w*value in place of each value: the bits of
 * numpy's multiply then add, summing from 0.0 when there is no base.
 * Every sample is read before any is written, so src == v is an in-place
 * sweep; base must not overlap v.  Each entry point expands its own copy
 * of asc, specialised by its constant arguments.
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

/* pairs (0,1), (1,2), ..., (n-1,0) of the ring, or of its mirror when step = -1 */
BODY void asc(double *v, const double *src, const double *base, long n, long step,
              double a, double b, double l, double w, int weighted)
{
    long end = step > 0 ? 0 : n;
    double *p = v + end;
    const double *q = src + end;
    const double *o = base ? base + end : 0;
    double s0 = a * src[0] + l * q[step];
    double s1 = b * src[0] + a * q[step];
    double z = b * s1;
    double x = q[2 * step];
    double y = z + a * x;               /* star_2 */
    z = next_z(x, b, y);
    p[step] = out(a * s1 + l * x, o, step, w, weighted);
    for (long i = 3; i < n; i++) {
        double star_prev = y;
        x = q[step * i];
        y = z + a * x;                  /* star_i */
        z = next_z(x, b, y);
        p[step * (i - 1)] = out(a * star_prev + l * x, o, step * (i - 1), w, weighted);
    }
    v[0] = out(b * y + a * s0, base, 0, w, weighted);
    p[step * (n - 1)] = out(a * y + l * s0, o, step * (n - 1), w, weighted);   /* wrap pair */
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
