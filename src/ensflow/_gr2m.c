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
