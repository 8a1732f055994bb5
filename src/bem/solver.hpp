// Linear-system solution stage (paper §4.3): direct Cholesky O(N^3/3) or
// the paper's preferred diagonally preconditioned conjugate gradient.
// Both paths parallelize over a worker pool: the blocked Cholesky runs its
// panel solve and trailing update across threads, PCG its matrix-vector
// product — so the solve phase scales alongside the fused assembly instead
// of capping end-to-end speed-up (Amdahl).
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "src/la/permutation.hpp"
#include "src/la/sym_matrix.hpp"

namespace ebem::par {
class ThreadPool;
}  // namespace ebem::par

namespace ebem::la {
class Cholesky;
}  // namespace ebem::la

namespace ebem::bem {

enum class SolverKind {
  kCholesky,  ///< direct LL^T (reference; out of range for very large N)
  kPcg,       ///< Jacobi-preconditioned CG (paper's recommendation)
};

/// Numerical policy of the solve — which algorithm, to what accuracy.
/// Worker resources live in SolveExecution (the old num_threads/pool knobs:
/// a single engine::ExecutionConfig now resolves them once, which also
/// retires the footgun of a supplied pool being silently ignored whenever
/// num_threads stayed 1).
struct SolverOptions {
  SolverKind kind = SolverKind::kCholesky;
  double cg_tolerance = 1e-12;
  std::size_t cg_max_iterations = 0;  ///< 0 = automatic
};

/// Resolved execution plumbing for one solve. The pool is referenced, not
/// owned; null keeps the serial reference path.
struct SolveExecution {
  par::ThreadPool* pool = nullptr;
  /// Panel width (= factor tile size) of the blocked Cholesky factorization.
  std::size_t cholesky_block = 64;
  /// Serial/parallel crossover of the pooled matvec (PCG iterations and the
  /// direct path's residual check); engine::ExecutionConfig tunes it.
  std::size_t matvec_parallel_cutoff = la::SymMatrix::kParallelCutoff;
  /// Direct path only: whether a caller-supplied SolveStats gets the
  /// achieved relative residual. The check costs one O(N^2) matvec — a full
  /// re-page of a spill-backed matrix — so callers that only want the cheap
  /// counters (factor_tiles) turn it off.
  bool measure_residual = true;
  /// DoF ordering the matrix was assembled under (AssemblyResult::ordering),
  /// or null when the matrix follows the model's numbering. When set, `rhs`
  /// is taken in external order, gathered into the matrix's internal order
  /// for the solve, and the solution is scattered back — callers see
  /// external order on both sides, identical to the unordered path.
  const la::Permutation* ordering = nullptr;
};

struct SolveStats {
  std::size_t iterations = 0;  ///< 0 for the direct solver
  double relative_residual = 0.0;
  /// Pager counters of the Cholesky factor's working store (zeros for PCG
  /// and for in-memory factors) — evictions and spill IO of an out-of-core
  /// solve surface here and on the engine's PhaseReport.
  la::TileStoreStats factor_tiles;
};

/// Solve R sigma = nu. Throws if PCG fails to converge.
[[nodiscard]] std::vector<double> solve(const la::SymMatrix& matrix, std::span<const double> rhs,
                                        const SolverOptions& options = {},
                                        const SolveExecution& execution = {},
                                        SolveStats* stats = nullptr);

/// Substitution half of the direct solve: answer `rhs` with an already built
/// factor of `matrix`, filling `stats` (and the relative residual when
/// execution.measure_residual) like solve() does. Shared by solve() and
/// callers that factor in a step of their own (the engine's pipelined
/// factor stage). Honours execution.ordering the same way solve() does.
[[nodiscard]] std::vector<double> solve_with_factor(const la::Cholesky& factor,
                                                    const la::SymMatrix& matrix,
                                                    std::span<const double> rhs,
                                                    const SolveExecution& execution,
                                                    SolveStats* stats);

/// Serial shim of the above for callers without an execution plan.
[[nodiscard]] std::vector<double> solve(const la::SymMatrix& matrix, std::span<const double> rhs,
                                        const SolverOptions& options, SolveStats* stats);

}  // namespace ebem::bem
