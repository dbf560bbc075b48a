/* The month loop of gr2m._run with math.tanh, one statement per Python line
   in the same order, so that every IEEE operation matches CPython's.  libm's
   tanh and pow are the functions math.tanh and float ** call; gr2m.load_kernel
   compiles with -fno-builtin and -ffp-contract=off, so the compiler neither
   folds nor fuses them.  Writes the flows of months warmup .. warmup+n_keep-1. */
#include <math.h>

void gr2m_run(double theta1, double theta2, double s, double r, const double *p, const double *e,
              long warmup, long n_keep, double *flows)
{
    for (long t = 0; t < warmup + n_keep; t++) {
        double pt = p[t];
        /* 1. rainfall uptake into the soil store; the rest is excess rainfall p1 */
        double phi = tanh(pt / theta1);
        double s1 = (s + theta1 * phi) / (1.0 + phi * s / theta1);
        double p1 = pt + s - s1;
        /* 2. evaporation drawdown from the soil store */
        double psi = tanh(e[t] / theta1);
        double s2 = s1 * (1.0 - psi) / (1.0 + psi * (1.0 - s1 / theta1));
        /* 3. cubic-law percolation */
        s = s2 / pow(1.0 + pow(s2 / theta1, 3.0), 1.0 / 3.0);
        double p3 = p1 + (s2 - s);
        /* 4. routing store inflow scaled by the exchange coefficient */
        double r2 = theta2 * (r + p3);
        /* 5. quadratic outflow against the fixed 60 mm capacity */
        double q = r2 * r2 / (r2 + 60.0);
        r = r2 - q;
        if (t >= warmup)
            flows[t - warmup] = q;
    }
}

#ifdef ENSFLOW_SAMPLER
/* The iterations start .. stop-1 of calibrate._run_single_chain, between two covariance adaptations, one
   statement per Python expression in the same order.  The normals and uniforms come from numpy's own
   generator code on the Generator's bitgen, the 2x2 products and the SSE from numpy's OpenBLAS with the
   arguments numpy's matmul passes, and calibrate's objective is gr2m_run, so every chain keeps its bits.
   Returns 1, with the chain unfinished, where the Python sampler raises: a zero SSE, a non-finite
   prediction, or math.log1p(-1.0); gr2m.load_kernel links libnpyrandom.a and numpy's OpenBLAS. */
#include <stdbool.h>
#include <numpy/random/bitgen.h>

double random_standard_normal(bitgen_t *bitgen_state);
void scipy_cblas_dgemv64_(int order, int trans, long m, long n, double alpha, const double *a, long lda,
                          const double *x, long incx, double beta, double *y, long incy);
double scipy_cblas_ddot64_(long n, const double *x, long incx, const double *y, long incy);

enum { COL_MAJOR = 102, NO_TRANS = 111, TRANS = 112 }; /* CBLAS's values */

struct objective {
    const double *p, *e;
    long warmup, n_keep;
    double *flows;
    const double *observed, *lower, *upper;
    double *residuals, routing;
};

/* Python's min(0.0, x) */
static double min0(double x) { return x < 0.0 ? x : 0.0; }

/* numpy's matmul of a C-contiguous 2x2 matrix and a vector (trans TRANS: a @ x, NO_TRANS: x @ a) */
static void matvec(int trans, const double *a, const double *x, double *y)
{
    scipy_cblas_dgemv64_(COL_MAJOR, trans, 2, 2, 1.0, a, 2, x, 1, 0.0, y, 1);
}

/* numpy's 1-d @ 1-d: a sum started at 0.0 */
static double dot(long n, const double *x, const double *y) { return 0.0 + scipy_cblas_ddot64_(n, x, 1, y, 1); }

/* posterior: -inf outside the box, else the objective -(n/2) ln(SSE), -inf where not finite */
static int posterior(const struct objective *o, const double *theta, double *ll)
{
    double theta1 = theta[0], theta2 = theta[1];
    if (!(o->lower[0] <= theta1 && theta1 <= o->upper[0] && o->lower[1] <= theta2 && theta2 <= o->upper[1])) {
        *ll = -INFINITY;
        return 0;
    }
    gr2m_run(theta1, theta2, 0.5 * theta1, o->routing, o->p, o->e, o->warmup, o->n_keep, o->flows);
    for (long i = 0; i < o->n_keep; i++)
        o->residuals[i] = o->observed[i] - o->flows[i];
    double sse = dot(o->n_keep, o->residuals, o->residuals);
    if (!isfinite(sse))
        for (long i = 0; i < o->n_keep; i++)
            if (!isfinite(o->flows[i]))
                return 1;
    if (sse == 0.0)
        return 1;
    double value = -0.5 * o->n_keep * log(sse);
    *ll = isfinite(value) ? value : -INFINITY;
    return 0;
}

/* _log_gauss_quadform(a - b, cov_inv) */
static double log_gauss_quadform(const double *a, const double *b, const double *cov_inv)
{
    double delta[2] = {a[0] - b[0], a[1] - b[1]}, row[2];
    matvec(NO_TRANS, cov_inv, delta, row);
    return -0.5 * dot(2, row, delta);
}

/* _log1m_exp; 1 where math.log1p raises (its result is infinite) */
static int log1m_exp(double log_p, double *out)
{
    if (log_p >= 0.0)
        *out = -INFINITY;
    else if (log_p > -37.0) {
        *out = log1p(-exp(log_p));
        return isinf(*out);
    } else
        *out = 0.0;
    return 0;
}

/* a proposal: current + factor @ two standard normals */
static void propose(bitgen_t *rng, const double *factor, const double *current, double *point)
{
    double z[2], step[2];
    z[0] = random_standard_normal(rng);
    z[1] = random_standard_normal(rng);
    matvec(TRANS, factor, z, step);
    point[0] = current[0] + step[0];
    point[1] = current[1] + step[1];
}

/* log(uniform()), -inf for a draw of 0 */
static double log_uniform(bitgen_t *rng) { return log(rng->next_double(rng->state)); }

int dram_block(const double *p, const double *e, long warmup, long n_keep, double *flows, const double *observed,
               double *residuals, const double *lower, const double *upper, double routing, bitgen_t *rng,
               const double *chol, const double *timid, const double *cov_inv, double *state, double *params,
               double *lls, bool *accepted, long start, long stop)
{
    const struct objective o = {p, e, warmup, n_keep, flows, observed, lower, upper, residuals, routing};
    double current[2] = {state[0], state[1]}, current_ll = state[2];
    for (long t = start; t < stop; t++) {
        double first[2], second[2], ll_first, ll_second;
        bool moved = false;
        propose(rng, chol, current, first);
        if (posterior(&o, first, &ll_first))
            return 1;
        double log_alpha1 = min0(ll_first - current_ll);
        if (log_uniform(rng) < log_alpha1) {
            current[0] = first[0], current[1] = first[1], current_ll = ll_first;
            moved = true;
        } else {
            propose(rng, timid, current, second);
            if (posterior(&o, second, &ll_second))
                return 1;
            if (ll_second > -INFINITY) {
                double log_alpha1_rev = min0(ll_first - ll_second), rev, fwd;
                double log_num = ll_second + log_gauss_quadform(first, second, cov_inv);
                if (log1m_exp(log_alpha1_rev, &rev))
                    return 1;
                log_num = log_num + rev;
                double log_den = current_ll + log_gauss_quadform(first, current, cov_inv);
                if (log1m_exp(log_alpha1, &fwd))
                    return 1;
                log_den = log_den + fwd;
                if (log_uniform(rng) < min0(log_num - log_den)) {
                    current[0] = second[0], current[1] = second[1], current_ll = ll_second;
                    moved = true;
                }
            }
        }
        params[2 * t] = current[0];
        params[2 * t + 1] = current[1];
        lls[t] = current_ll;
        accepted[t] = moved;
    }
    state[0] = current[0], state[1] = current[1], state[2] = current_ll;
    return 0;
}
#endif
