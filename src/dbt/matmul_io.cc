#include "dbt/matmul_io.hh"

#include <cstdint>
#include <vector>

#include "base/logging.hh"

namespace sap {

std::string
bandPartName(BandPart part)
{
    switch (part) {
      case BandPart::USub:   return "U_{k,0}";
      case BandPart::LDiag:  return "L_{k,0}";
      case BandPart::Diag:   return "D_k";
      case BandPart::UDiag:  return "U_{k,1}";
      case BandPart::LSuper: return "L_{k,1}";
    }
    return "?";
}

IoComposer::IoComposer(const MatMulDims &dims) : dims_(dims) {}

IoSource
IoComposer::inputSource(Index k, BandPart part) const
{
    const Index K = dims_.blockCount();
    const Index pbar = dims_.pbar;
    const Index nbar = dims_.nbar;
    const Index mbar = dims_.mbar;
    const Index pn = pbar * nbar;
    const Index r = (k % pn) / pbar;
    const Index c = k / pn;

    IoSource src;
    switch (part) {
      case BandPart::USub:
        SAP_ASSERT(k >= 1 && k <= K, "U_{k,0} needs k in [1,K]");
        if (k % pn == 0) {
            // Closing hop of the U chain of C block (0, c−1): the
            // partial fed back from the end of that chain's regular
            // zig-zag (long delay when n̄ > 1).
            src.kind = IoSource::Kind::FromO;
            src.oRow = k - pbar * (nbar - 1) - 1;
            src.oPart = BandPart::UDiag;
            src.irregular = (nbar > 1);
        } else if (k % pbar == 0) {
            src.kind = IoSource::Kind::FromE;
            src.eRow = r;
            src.eCol = c;
        } else {
            src.kind = IoSource::Kind::FromO;
            src.oRow = k - 1;
            src.oPart = BandPart::UDiag;
        }
        return src;

      case BandPart::UDiag:
        SAP_ASSERT(k >= 0 && k <= K, "U_{k,1} needs k in [0,K]");
        if (k % pn == 0) {
            if (c >= mbar) { // the tail row: zero in, output discarded
                src.kind = IoSource::Kind::Zero;
            } else {
                src.kind = IoSource::Kind::FromE;
                src.eRow = 0;
                src.eCol = c;
            }
        } else {
            src.kind = IoSource::Kind::FromO;
            src.oRow = k;
            src.oPart = BandPart::USub;
        }
        return src;

      case BandPart::Diag:
        SAP_ASSERT(k >= 0 && k <= K, "D_k needs k in [0,K]");
        if (k % pbar == 0) {
            if (k == K) {
                src.kind = IoSource::Kind::Zero;
            } else {
                src.kind = IoSource::Kind::FromE;
                src.eRow = r;
                src.eCol = c;
            }
        } else {
            src.kind = IoSource::Kind::FromO;
            src.oRow = k - 1;
            src.oPart = BandPart::Diag;
        }
        return src;

      case BandPart::LDiag:
        SAP_ASSERT(k >= 0 && k <= K, "L_{k,0} needs k in [0,K]");
        if (k == K) {
            // Tail row: the diagonal-block output is discarded, so
            // its lower part takes no input.
            src.kind = IoSource::Kind::Zero;
        } else if ((k + pbar) % pn == 0 && k != pbar * (nbar - 1)) {
            // Chain start of C block (n̄−1, c) for c >= 1: resumes
            // from the early-materialized super-diagonal partial at
            // the end of copy c−1 (long delay when n̄ > 1).
            src.kind = IoSource::Kind::FromO;
            src.oRow = k - pbar * (nbar - 1) - 1;
            src.oPart = BandPart::LSuper;
            src.irregular = (nbar > 1);
        } else if (k % pbar == 0) {
            if (k == K) {
                src.kind = IoSource::Kind::Zero;
            } else {
                src.kind = IoSource::Kind::FromE;
                src.eRow = r;
                src.eCol = c;
            }
        } else {
            src.kind = IoSource::Kind::FromO;
            src.oRow = k - 1;
            src.oPart = BandPart::LSuper;
        }
        return src;

      case BandPart::LSuper:
        SAP_ASSERT(k >= 0 && k <= K - 1, "L_{k,1} needs k in [0,K-1]");
        if (k == K - 1 && mbar > 1) {
            // The global tail: the L chain of C block (n̄−1, 0)
            // resumes at the very end of the band (the B̄ tail L'
            // supplies its last product term).
            src.kind = IoSource::Kind::FromO;
            src.oRow = pbar * nbar - 1;
            src.oPart = BandPart::LDiag;
            src.irregular = true;
        } else if ((k + 1) % pn == 0 && k != K - 1) {
            // E injection for the chain of C block (n̄−1, c+1) whose
            // first product term materializes here, one copy early.
            src.kind = IoSource::Kind::FromE;
            src.eRow = nbar - 1;
            src.eCol = (k + 1) / pn;
        } else {
            src.kind = IoSource::Kind::FromO;
            src.oRow = k;
            src.oPart = BandPart::LDiag;
        }
        return src;
    }
    SAP_PANIC("unreachable");
}

ExtractSource
IoComposer::extractSource(Index i, Index j, BandPart part) const
{
    const Index pbar = dims_.pbar;
    const Index nbar = dims_.nbar;
    const Index pn = pbar * nbar;
    SAP_ASSERT(i >= 0 && i < nbar && j >= 0 && j < dims_.mbar,
               "C block (", i, ",", j, ") out of range");
    const Index k1 = (i + j * nbar + 1) * pbar - 1;

    switch (part) {
      case BandPart::UDiag: // the complete upper part of C_{i,j}
        if (i == 0)
            return {(j + 1) * pn, BandPart::USub};
        return {k1, BandPart::UDiag};
      case BandPart::Diag:
        return {k1, BandPart::Diag};
      case BandPart::LDiag: // the complete lower part of C_{i,j}
        if (i == nbar - 1 && j == 0)
            return {dims_.blockCount() - 1, BandPart::LSuper};
        if (i == nbar - 1)
            return {(j + 1) * pn - 1, BandPart::LDiag};
        return {k1, BandPart::LSuper};
      default:
        SAP_PANIC("extraction is queried per U/D/L class, got ",
                  bandPartName(part));
    }
}

bool
IoComposer::outputIsRecirculated(Index k, BandPart part) const
{
    const Index K = dims_.blockCount();
    const Index stride = dims_.pbar * (dims_.nbar - 1) + 1;

    // Enumerate the bounded candidate consumer slots and test each.
    struct Cand { Index k; BandPart part; };
    std::vector<Cand> cands;
    switch (part) {
      case BandPart::UDiag:
        cands.push_back({k + 1, BandPart::USub});
        cands.push_back({k + stride, BandPart::USub});
        break;
      case BandPart::USub:
        cands.push_back({k, BandPart::UDiag});
        break;
      case BandPart::Diag:
        cands.push_back({k + 1, BandPart::Diag});
        break;
      case BandPart::LSuper:
        cands.push_back({k + 1, BandPart::LDiag});
        cands.push_back({k + stride, BandPart::LDiag});
        break;
      case BandPart::LDiag:
        cands.push_back({k, BandPart::LSuper});
        cands.push_back({K - 1, BandPart::LSuper});
        break;
    }

    for (const Cand &cand : cands) {
        if (cand.k < 0 || cand.k > K)
            continue;
        if (cand.part == BandPart::LSuper && cand.k > K - 1)
            continue;
        if (cand.part == BandPart::USub && cand.k < 1)
            continue;
        IoSource src = inputSource(cand.k, cand.part);
        if (src.kind == IoSource::Kind::FromO && src.oRow == k &&
            src.oPart == part)
            return true;
    }
    return false;
}

bool
IoComposer::validate() const
{
    const Index K = dims_.blockCount();

    // Every FromO reference must name a slot that is computed
    // earlier in band order (row k' < k, or same row with the
    // within-row order USub -> {LDiag, Diag, UDiag} -> LSuper).
    auto stage = [](BandPart p) {
        switch (p) {
          case BandPart::USub: return 0;
          case BandPart::LDiag:
          case BandPart::Diag:
          case BandPart::UDiag: return 1;
          case BandPart::LSuper: return 2;
        }
        return 3;
    };
    // O slots (row k in [0, K], part) as one flat bitmap index.
    constexpr Index kParts = 5;
    auto key = [](Index k, BandPart p) {
        return static_cast<std::size_t>(k * kParts +
                                        static_cast<Index>(p));
    };
    const std::size_t slots = key(K + 1, BandPart::USub);

    // Consumption uniqueness: no O slot feeds two inputs.
    std::vector<std::uint8_t> consumed(slots, 0);

    auto visit = [&](Index k, BandPart part) -> bool {
        IoSource src = inputSource(k, part);
        if (src.kind != IoSource::Kind::FromO)
            return true;
        if (src.oRow < 0 || src.oRow > K)
            return false;
        bool earlier = src.oRow < k ||
                       (src.oRow == k &&
                        stage(src.oPart) < stage(part));
        if (!earlier)
            return false;
        std::uint8_t &seen = consumed[key(src.oRow, src.oPart)];
        if (seen)
            return false; // double consumption
        seen = 1;
        return true;
    };

    for (Index k = 0; k <= K; ++k) {
        if (k >= 1 && !visit(k, BandPart::USub))
            return false;
        if (!visit(k, BandPart::LDiag))
            return false;
        if (!visit(k, BandPart::Diag))
            return false;
        if (!visit(k, BandPart::UDiag))
            return false;
        if (k <= K - 1 && !visit(k, BandPart::LSuper))
            return false;
    }

    // Extraction uniqueness, and no extracted slot is also consumed.
    // (An extraction outside the band's rows is malformed too.)
    std::vector<std::uint8_t> extracted(slots, 0);
    for (Index i = 0; i < dims_.nbar; ++i) {
        for (Index j = 0; j < dims_.mbar; ++j) {
            for (BandPart part : {BandPart::UDiag, BandPart::Diag,
                                  BandPart::LDiag}) {
                ExtractSource e = extractSource(i, j, part);
                if (e.oRow < 0 || e.oRow > K)
                    return false;
                const std::size_t at = key(e.oRow, e.oPart);
                if (extracted[at] || consumed[at])
                    return false;
                extracted[at] = 1;
            }
        }
    }
    return true;
}

} // namespace sap
