// The Scheme registry: the paper's 14 evaluated configurations (§8) as a
// runtime enumeration, plus the capability/decomposition helpers the
// Engine facade (core/engine.hpp) resolves schemes with.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "core/config.hpp"
#include "util/common.hpp"

namespace msp {

/// Every scheme of paper §8: {MSA, Hash, MCA, Heap, HeapDot, Inner} ×
/// {1P, 2P} plus the two SuiteSparse:GraphBLAS-style baselines, plus
/// `kAuto` — the runtime-selection seam: not a 15th kernel but a policy
/// that resolves to one of the twelve per call (see auto_scheme_options).
enum class Scheme {
  kMsa1P,
  kMsa2P,
  kHash1P,
  kHash2P,
  kMca1P,
  kMca2P,
  kHeap1P,
  kHeap2P,
  kHeapDot1P,
  kHeapDot2P,
  kInner1P,
  kInner2P,
  kSsDot,
  kSsSaxpy,
  kAuto,
};

inline std::string_view scheme_name(Scheme s) {
  switch (s) {
    case Scheme::kMsa1P: return "MSA-1P";
    case Scheme::kMsa2P: return "MSA-2P";
    case Scheme::kHash1P: return "Hash-1P";
    case Scheme::kHash2P: return "Hash-2P";
    case Scheme::kMca1P: return "MCA-1P";
    case Scheme::kMca2P: return "MCA-2P";
    case Scheme::kHeap1P: return "Heap-1P";
    case Scheme::kHeap2P: return "Heap-2P";
    case Scheme::kHeapDot1P: return "HeapDot-1P";
    case Scheme::kHeapDot2P: return "HeapDot-2P";
    case Scheme::kInner1P: return "Inner-1P";
    case Scheme::kInner2P: return "Inner-2P";
    case Scheme::kSsDot: return "SS:DOT";
    case Scheme::kSsSaxpy: return "SS:SAXPY";
    case Scheme::kAuto: return "Auto";
  }
  return "?";
}

/// Parse a paper-style scheme label ("MSA-1P", "SS:DOT", "Auto", ...).
/// Returns false when the name matches no scheme.
inline bool scheme_from_name(std::string_view name, Scheme& out) {
  for (Scheme s :
       {Scheme::kMsa1P, Scheme::kMsa2P, Scheme::kHash1P, Scheme::kHash2P,
        Scheme::kMca1P, Scheme::kMca2P, Scheme::kHeap1P, Scheme::kHeap2P,
        Scheme::kHeapDot1P, Scheme::kHeapDot2P, Scheme::kInner1P,
        Scheme::kInner2P, Scheme::kSsDot, Scheme::kSsSaxpy, Scheme::kAuto}) {
    if (name == scheme_name(s)) {
      out = s;
      return true;
    }
  }
  return false;
}

/// The 12 schemes proposed in the paper (Fig. 8's line-up). `kAuto` is a
/// selection policy over these, not a member.
inline std::vector<Scheme> our_schemes() {
  return {Scheme::kMsa1P,     Scheme::kMsa2P,  Scheme::kHash1P,
          Scheme::kHash2P,    Scheme::kMca1P,  Scheme::kMca2P,
          Scheme::kHeap1P,    Scheme::kHeap2P, Scheme::kHeapDot1P,
          Scheme::kHeapDot2P, Scheme::kInner1P, Scheme::kInner2P};
}

/// All 14 schemes including baselines (still excluding `kAuto`, which has
/// no identity of its own in the paper's plots).
inline std::vector<Scheme> all_schemes() {
  auto v = our_schemes();
  v.push_back(Scheme::kSsDot);
  v.push_back(Scheme::kSsSaxpy);
  return v;
}

/// True if the scheme can execute with a complemented mask (MCA and the
/// paper's MCA-based results exclude complement; see §8.4). `kAuto` only
/// ever resolves to complement-capable schemes under a complemented mask.
inline bool scheme_supports_complement(Scheme s) {
  return s != Scheme::kMca1P && s != Scheme::kMca2P;
}

/// Thrown by every dispatch layer (the Engine builder, TiledEngine,
/// multiply_dyn) when a scheme is asked to execute a configuration it
/// cannot support — currently a complemented mask on the MCA schemes. The
/// offending scheme is carried both in the message and as a field, so
/// services can report the rejected configuration by name instead of
/// pattern-matching a generic invalid_argument.
class unsupported_scheme_error : public invalid_argument_error {
 public:
  unsupported_scheme_error(Scheme s, const std::string& what_failed)
      : invalid_argument_error("scheme " + std::string(scheme_name(s)) +
                               ": " + what_failed),
        scheme_(s) {}

  [[nodiscard]] Scheme scheme() const { return scheme_; }

 private:
  Scheme scheme_;
};

/// Reject unsupported (scheme, mask kind) combinations loudly, before any
/// kernel or parallel region is entered. Every dispatch entry point calls
/// this so a complemented MCA request can never silently mis-dispatch.
inline void require_scheme_supports(Scheme s, MaskKind kind) {
  if (kind == MaskKind::kComplement && !scheme_supports_complement(s)) {
    throw unsupported_scheme_error(s, "complemented masks are not supported");
  }
}

/// Decompose a scheme into dispatcher options (baselines return false).
/// `kAuto` decomposes to its flops-blind fallback (the per-row adaptive
/// kernel, one-phase); callers that know the flops should prefer
/// auto_scheme_options for the documented density heuristic.
inline bool scheme_to_options(Scheme s, MaskedSpgemmOptions& opt) {
  switch (s) {
    case Scheme::kMsa1P:
    case Scheme::kMsa2P:
      opt.algorithm = MaskedAlgorithm::kMsa;
      break;
    case Scheme::kHash1P:
    case Scheme::kHash2P:
      opt.algorithm = MaskedAlgorithm::kHash;
      break;
    case Scheme::kMca1P:
    case Scheme::kMca2P:
      opt.algorithm = MaskedAlgorithm::kMca;
      break;
    case Scheme::kHeap1P:
    case Scheme::kHeap2P:
      opt.algorithm = MaskedAlgorithm::kHeap;
      break;
    case Scheme::kHeapDot1P:
    case Scheme::kHeapDot2P:
      opt.algorithm = MaskedAlgorithm::kHeapDot;
      break;
    case Scheme::kInner1P:
    case Scheme::kInner2P:
      opt.algorithm = MaskedAlgorithm::kInner;
      break;
    case Scheme::kAuto:
      opt.algorithm = MaskedAlgorithm::kAdaptive;
      opt.phase = MaskedPhase::kOnePhase;
      return true;
    case Scheme::kSsDot:
    case Scheme::kSsSaxpy:
      return false;
  }
  switch (s) {
    case Scheme::kMsa2P:
    case Scheme::kHash2P:
    case Scheme::kMca2P:
    case Scheme::kHeap2P:
    case Scheme::kHeapDot2P:
    case Scheme::kInner2P:
      opt.phase = MaskedPhase::kTwoPhase;
      break;
    default:
      opt.phase = MaskedPhase::kOnePhase;
      break;
  }
  return true;
}

/// Resolve `Scheme::kAuto` to concrete options from the flops density of
/// the call — the seam where a learned tuning model will eventually plug
/// in (ROADMAP "new backends" item). The current policy is a documented
/// two-rule heuristic over the quantities the plan layer already has:
///
///  * algorithm: always the per-row adaptive kernel, which routes each row
///    to MSA/Hash/Heap by its own flops (paper §9's future-work hybrid) —
///    a per-row decision strictly finer than any whole-matrix pick;
///  * phase: one-phase while the mask is a tight size bound — i.e. the
///    total admitted positions do not exceed the total flops (the paper's
///    §6 observation that 1P wins when its temporary is close to the real
///    output) — and two-phase otherwise. For a regular mask the admitted
///    positions are nnz(M); for a complemented mask they are
///    nrows·ncols − nnz(M), so the complement decision is now a computed
///    bound test rather than "always 2P": a near-full mask whose
///    complement admits few positions correctly lands on one-phase.
///
/// The dimensions are taken as int64 (not an index template parameter) so
/// every dispatch layer can call this without instantiation; the product
/// nrows·ncols is evaluated in double to dodge int64 overflow — a
/// threshold test needs no exactness at that magnitude.
inline MaskedSpgemmOptions auto_scheme_options(std::int64_t total_flops,
                                               std::size_t mask_nnz,
                                               MaskKind kind,
                                               std::int64_t nrows,
                                               std::int64_t ncols) {
  MaskedSpgemmOptions opt;
  opt.algorithm = MaskedAlgorithm::kAdaptive;
  const double admitted =
      kind == MaskKind::kMask
          ? static_cast<double>(mask_nnz)
          : static_cast<double>(nrows) * static_cast<double>(ncols) -
                static_cast<double>(mask_nnz);
  const bool tight_bound = admitted <= static_cast<double>(total_flops);
  opt.phase = tight_bound ? MaskedPhase::kOnePhase : MaskedPhase::kTwoPhase;
  opt.mask_kind = kind;
  return opt;
}

}  // namespace msp
