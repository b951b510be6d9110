/* One periodic pair sweep in place: the compiled kernel behind sweep.sweep().
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
 * Build with -ffp-contract=off: a fused multiply-add changes the bits.
 * Callers pass a C-contiguous float64 array with n >= 3.
 */

/* the chain state after star y of input sample x, recurrence coefficient b */
static inline double next_z(double x, double b, double y)
{
    double z = b * y;
    if (!(z != 0.0) || x - x != 0.0)    /* b*y is +-0 or nan, or x is not finite */
        z = 0.0 * x - (-b) * y;
    return z;
}

/* pairs (0,1), (1,2), ..., (n-1,0) */
void sweep_asc(double *v, long n, double a, double b, double l)
{
    double s0 = a * v[0] + l * v[1];
    double s1 = b * v[0] + a * v[1];
    double z = b * s1;
    double x = v[2];
    double y = z + a * x;               /* star_2 */
    z = next_z(x, b, y);
    v[1] = a * s1 + l * x;
    for (long j = 3; j < n; j++) {
        double star_prev = y;
        x = v[j];
        y = z + a * x;                  /* star_j */
        z = next_z(x, b, y);
        v[j - 1] = a * star_prev + l * x;
    }
    v[0] = b * y + a * s0;
    v[n - 1] = a * y + l * s0;          /* wrap pair (n-1,0) */
}

/* pairs (n-1,0), (n-2,n-1), ..., (0,1) */
void sweep_desc(double *v, long n, double a, double b, double l)
{
    double s0 = b * v[n - 1] + a * v[0];
    double sn = a * v[n - 1] + l * v[0];
    double z = l * sn;
    double x = v[n - 2];
    double y = z + a * x;               /* star_{n-2} */
    z = next_z(x, l, y);
    v[n - 1] = b * x + a * sn;
    for (long j = n - 3; j >= 1; j--) {
        double star_prev = y;
        x = v[j];
        y = z + a * x;                  /* star_j */
        z = next_z(x, l, y);
        v[j + 1] = b * x + a * star_prev;
    }
    v[1] = b * s0 + a * y;              /* final pair (0,1) */
    v[0] = a * s0 + l * y;
}
