#include "analysis/formulas.hh"

#include "base/logging.hh"

namespace sap {
namespace formulas {

Cycle
tMatVec(Index w, Index nbar, Index mbar)
{
    SAP_ASSERT(w >= 1 && nbar >= 1 && mbar >= 1, "bad parameters");
    return 2 * w * nbar * mbar + 2 * w - 3;
}

Cycle
tMatVecOverlap(Index w, Index nbar, Index mbar)
{
    SAP_ASSERT(w >= 1 && nbar >= 1 && mbar >= 1, "bad parameters");
    return w * nbar * mbar + 2 * w - 2;
}

double
eMatVec(Index w, Index nbar, Index mbar)
{
    double nm = static_cast<double>(nbar * mbar);
    double dw = static_cast<double>(w);
    return 1.0 / (2.0 + 2.0 / nm - 3.0 / (dw * nm));
}

double
eMatVecOverlap(Index w, Index nbar, Index mbar)
{
    double nm = static_cast<double>(nbar * mbar);
    double dw = static_cast<double>(w);
    return 1.0 / (1.0 + 2.0 / nm - 2.0 / (dw * nm));
}

Cycle
linearFeedbackDelay(Index w)
{
    return w;
}

Index
linearFeedbackRegisters(Index w)
{
    return w;
}

Cycle
tMatMul(Index w, Index pbar, Index nbar, Index mbar)
{
    SAP_ASSERT(w >= 1 && pbar >= 1 && nbar >= 1 && mbar >= 1,
               "bad parameters");
    return 3 * w * pbar * nbar * mbar + 4 * w - 5;
}

double
eMatMul(Index w, Index pbar, Index nbar, Index mbar)
{
    double pnm = static_cast<double>(pbar * nbar * mbar);
    double dw = static_cast<double>(w);
    return 1.0 / (3.0 + 4.0 / pnm - 5.0 / (dw * pnm));
}

Cycle
hexRegularDelay(Index w)
{
    return w;
}

Cycle
hexDelayU0j(Index w, Index nbar, Index pbar)
{
    return 6 * (w - 1) * (nbar - 1) * pbar + w;
}

Cycle
hexDelayLlast(Index w, Index nbar, Index pbar, Index mbar)
{
    return 6 * (nbar * pbar) * (mbar - 1) * (w - 1) + w;
}

Index
hexMemMainDiag(Index w)
{
    return 2 * w;
}

Index
hexMemSubDiag(Index w)
{
    return w;
}

Index
hexMemIrregular(Index w)
{
    return w * (w - 1) * 3 / 2;
}

Cycle
tTriSolve(Index w, Index nbar)
{
    SAP_ASSERT(w >= 1 && nbar >= 1, "bad parameters");
    Cycle t = nbar * (2 * w - 1);
    for (Index r = 1; r < nbar; ++r)
        t += tMatVec(w, 1, r);
    return t;
}

Cycle
tMesh(Index w, Index pbar, Index nbar, Index mbar)
{
    SAP_ASSERT(w >= 1 && pbar >= 1 && nbar >= 1 && mbar >= 1,
               "bad parameters");
    return nbar * mbar * (pbar * w + 2 * (w - 1));
}

Cycle
tNoFeedback(Index w, Index nbar, Index mbar)
{
    SAP_ASSERT(w >= 1 && nbar >= 1 && mbar >= 1, "bad parameters");
    return nbar * mbar * tMatVec(w, 1, 1);
}

double
eMesh(Index w, Index pbar)
{
    double pw = static_cast<double>(pbar * w);
    return pw / (pw + 2.0 * static_cast<double>(w - 1));
}

double
utilization(Index ops, Index pes, Cycle steps)
{
    SAP_ASSERT(pes > 0 && steps > 0, "bad utilization denominator");
    return static_cast<double>(ops) /
           (static_cast<double>(pes) * static_cast<double>(steps));
}

} // namespace formulas
} // namespace sap
