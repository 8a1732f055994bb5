#include "src/bem/pair_signature.hpp"

#include <algorithm>
#include <cmath>

#include "src/common/error.hpp"
#include "src/common/hash.hpp"

namespace ebem::bem {

namespace {

struct Vec2 {
  double x = 0.0;
  double y = 0.0;
};

/// Degeneracy threshold [m] for choosing the canonical frame: vectors
/// shorter than this cannot define the rotation, components smaller than
/// this cannot pin the reflection. Far below any physical element length
/// or spacing, far above quantization noise — and a borderline choice is
/// only ever a missed hit, never a wrong one, because any frame built from
/// the actual geometry yields a faithful key.
constexpr double kFrameTol = 1e-9;

[[nodiscard]] std::int64_t quantize(double value, double quantum) {
  const double scaled = value / quantum;
  EBEM_EXPECT(std::abs(scaled) < 9.0e18, "coordinate overflows the congruence lattice; "
                                         "increase the congruence quantum");
  return std::llround(scaled);
}

}  // namespace

PairSignature make_pair_signature(const BemElement& field, const BemElement& source,
                                  double quantum) {
  EBEM_EXPECT(quantum > 0.0, "congruence quantum must be positive");

  // The pair's horizontal geometry is fully described by three 2D vectors:
  // field direction u, source direction v, field-start-to-source-start
  // offset w. (With the z coordinates kept verbatim this reconstructs all
  // four endpoints up to a horizontal rigid motion.)
  Vec2 u{field.b.x - field.a.x, field.b.y - field.a.y};
  Vec2 v{source.b.x - source.a.x, source.b.y - source.a.y};
  Vec2 w{source.a.x - field.a.x, source.a.y - field.a.y};
  Vec2* const vectors[3] = {&u, &v, &w};

  // Rotation: align the first non-degenerate vector with +x.
  for (Vec2* reference : vectors) {
    const double length = std::hypot(reference->x, reference->y);
    if (length <= kFrameTol) continue;
    const double c = reference->x / length;
    const double s = reference->y / length;
    for (Vec2* vec : vectors) {
      const double x = c * vec->x + s * vec->y;
      const double y = -s * vec->x + c * vec->y;
      vec->x = x;
      vec->y = y;
    }
    break;
  }

  // Reflection: flip y so the first off-axis vector points to y > 0.
  for (Vec2* reference : vectors) {
    if (std::abs(reference->y) <= kFrameTol) continue;
    if (reference->y < 0.0) {
      for (Vec2* vec : vectors) vec->y = -vec->y;
    }
    break;
  }

  PairSignature signature;
  signature.q = {
      quantize(u.x, quantum),          quantize(u.y, quantum),
      quantize(v.x, quantum),          quantize(v.y, quantum),
      quantize(w.x, quantum),          quantize(w.y, quantum),
      quantize(field.a.z, quantum),    quantize(field.b.z, quantum),
      quantize(source.a.z, quantum),   quantize(source.b.z, quantum),
      quantize(field.radius, quantum), quantize(source.radius, quantum),
      static_cast<std::int64_t>(field.layer) << 32 |
          static_cast<std::int64_t>(source.layer),
  };

  // Signed/unsigned variants of the same width may alias.
  signature.hash = hash_words(
      {reinterpret_cast<const std::uint64_t*>(signature.q.data()), signature.q.size()});
  return signature;
}

ElementShape make_element_shape(const BemElement& element, double quantum) {
  EBEM_EXPECT(quantum > 0.0, "congruence quantum must be positive");
  return {quantize(element.b.x - element.a.x, quantum),
          quantize(element.b.y - element.a.y, quantum),
          quantize(element.a.z, quantum),
          quantize(element.b.z, quantum),
          quantize(element.radius, quantum),
          static_cast<std::int64_t>(element.layer)};
}

std::array<std::int64_t, 2> lattice_start(const BemElement& element, double quantum) {
  EBEM_EXPECT(quantum > 0.0, "congruence quantum must be positive");
  return {quantize(element.a.x, quantum), quantize(element.a.y, quantum)};
}

CanonicalPairSignature make_canonical_pair_signature(const BemElement& field,
                                                     const BemElement& source, double quantum) {
  CanonicalPairSignature canonical;
  canonical.signature = make_pair_signature(field, source, quantum);

  // Separation gate: midpoint distance over the longer element length. Both
  // quantities are invariant under the horizontal isometries and symmetric
  // under the role swap, so every member of a congruence class makes the
  // same choice. A borderline pair that lands on the other side of the gate
  // than a congruent copy merely misses a replay — never replays wrongly.
  const geom::Vec3 field_mid = 0.5 * (field.a + field.b);
  const geom::Vec3 source_mid = 0.5 * (source.a + source.b);
  const double separation = geom::distance(field_mid, source_mid);
  const double longest = std::max(field.length, source.length);
  if (!transpose_separated(separation, longest)) return canonical;

  // Both orientations are fully canonicalized and the smaller key wins.
  // This doubles the hashing work per well-separated lookup, but hashing is
  // orders of magnitude below one saved integration and the measured warm
  // assembly speedup rose (47x -> 61x on the bench grid) because the merged
  // classes eliminate far more misses than the extra canonicalization
  // costs. A cheaper swap-antisymmetric pre-order over per-element
  // invariants could halve this if signature hashing ever dominates.
  const PairSignature swapped = make_pair_signature(source, field, quantum);
  if (std::lexicographical_compare(swapped.q.begin(), swapped.q.end(),
                                   canonical.signature.q.begin(),
                                   canonical.signature.q.end())) {
    canonical.signature = swapped;
    canonical.transposed = true;
  }
  return canonical;
}

}  // namespace ebem::bem
