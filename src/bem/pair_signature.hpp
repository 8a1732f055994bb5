// Canonical geometric signature of an element pair, the key of the
// congruence cache (ROADMAP: "geometric congruence caching").
//
// Every soil kernel in the library is a layered-medium Green's function and
// therefore invariant under horizontal rigid motions: translating, rotating
// (about the vertical axis) or reflecting (through a vertical plane) *both*
// elements of a pair leaves the Galerkin block R^{beta alpha} unchanged —
// the images move with the sources and every source/image-to-field distance
// is preserved. z is special (the surface and layer interfaces are physical
// planes), so vertical coordinates enter the signature verbatim.
//
// The signature is the pair's geometry expressed in a canonical horizontal
// frame — translate the field start point to the origin, rotate the first
// non-degenerate direction onto +x, reflect the first off-axis direction to
// y > 0 — and quantized to an integer lattice. Two pairs congruent up to
// the quantum map to the same key; on a uniform rectangular grid the
// M(M+1)/2 pairs collapse into O(M) classes, which is what lets assembly
// skip almost every integration.
#pragma once

#include <array>
#include <cstdint>

#include "src/bem/element.hpp"

namespace ebem::bem {

/// Default signature quantization step [m]. Chosen so that two pairs mapped
/// to the same key have geometries equal to well below the 1e-12 relative
/// parity tolerance expected between cache-on and cache-off assembly, while
/// still absorbing the ~1e-14 float noise of the canonicalization itself.
inline constexpr double kDefaultCongruenceQuantum = 1e-12;

/// Quantized canonical pair geometry plus its precomputed hash.
struct PairSignature {
  /// Canonical-frame coordinates on the quantum lattice:
  /// [0..5]  horizontal field direction u, source direction v and relative
  ///         offset w (two lattice coordinates each),
  /// [6..9]  vertical endpoint coordinates z_Fa, z_Fb, z_Sa, z_Sb,
  /// [10..11] field and source radii,
  /// [12]    packed (field layer, source layer).
  std::array<std::int64_t, 13> q{};
  std::uint64_t hash = 0;

  friend bool operator==(const PairSignature&, const PairSignature&) = default;
};

struct PairSignatureHash {
  [[nodiscard]] std::size_t operator()(const PairSignature& s) const noexcept {
    return static_cast<std::size_t>(s.hash);
  }
};

/// Signature of the ordered pair (field, source). The ordering matters: the
/// cached block is reused verbatim, and endpoint/DoF labels follow the
/// canonical isometry, so only pairs with matching role and endpoint order
/// may share a key. Swapped roles are related by a transpose — exploited
/// separately by make_canonical_pair_signature below.
[[nodiscard]] PairSignature make_pair_signature(const BemElement& field,
                                                const BemElement& source,
                                                double quantum = kDefaultCongruenceQuantum);

/// Galerkin reciprocity: with identical test and trial families the block of
/// the swapped ordered pair is the transpose, R^{alpha beta} = (R^{beta
/// alpha})^T. That is exact in exact arithmetic; numerically the outer-Gauss
/// / inner-analytic split breaks it by the outer quadrature error, which on
/// the bench grids measures ~1e-4 relative for pairs closer than two element
/// lengths, ~4e-13 at two-to-three lengths, and <= 6e-14 beyond three. Only
/// past this ratio may a cached block be replayed transposed without
/// violating the 1e-12 cache-on/cache-off parity contract.
inline constexpr double kTransposeSeparationRatio = 3.0;

/// The measured-decay separation predicate behind that ratio: true when a
/// separation distance is at least kTransposeSeparationRatio times the
/// longest element length involved. Shared by the congruence cache's
/// role-canonical gate (midpoint separation of one pair) and the far-field
/// admissibility partition (bounding-box separation of two element
/// clusters, which lower-bounds every crossing pair's midpoint separation),
/// so the two gates cannot drift apart.
[[nodiscard]] inline bool transpose_separated(double separation, double longest_element_length) {
  return separation >= kTransposeSeparationRatio * longest_element_length;
}

/// Role-canonical signature: the lexicographically smaller of the (field,
/// source) and (source, field) ordered signatures, so both orientations of a
/// congruence class share one cache entry. `transposed` records whether the
/// swapped order won — the stored block is then kept in canonical
/// orientation and transposed back on replay. Pairs closer than
/// kTransposeSeparationRatio element lengths keep the ordered signature
/// (transposed == false): for them the transpose identity only holds to
/// quadrature accuracy, far above the cache parity tolerance.
struct CanonicalPairSignature {
  PairSignature signature;
  bool transposed = false;
};

[[nodiscard]] CanonicalPairSignature make_canonical_pair_signature(
    const BemElement& field, const BemElement& source,
    double quantum = kDefaultCongruenceQuantum);

/// Translation-class keys — the cheap first stage of the planned assembly.
/// Horizontal translation is the one isometry that needs no canonical
/// frame: two pairs whose field elements have the same shape, whose source
/// elements have the same shape and whose start points are offset by the
/// same horizontal vector are translated copies, and so share one
/// canonical signature. Shape and start are computed once per element, so
/// a pair's key costs two integer subtractions — against the rotation,
/// reflection and role swap make_canonical_pair_signature pays for. All
/// parts are lattice coordinates at the congruence quantum; keys match when
/// the offsets agree to within a quantum per coordinate.
///
/// Element shape: axis vector (b - a), endpoint depths, radius, layer.
using ElementShape = std::array<std::int64_t, 6>;
[[nodiscard]] ElementShape make_element_shape(const BemElement& element,
                                              double quantum = kDefaultCongruenceQuantum);

/// Horizontal start point (a.x, a.y) on the lattice; a pair's offset is the
/// source's start minus the field's.
[[nodiscard]] std::array<std::int64_t, 2> lattice_start(const BemElement& element,
                                                        double quantum = kDefaultCongruenceQuantum);

}  // namespace ebem::bem
