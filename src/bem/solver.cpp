#include "src/bem/solver.hpp"

#include "src/common/error.hpp"
#include "src/la/blas1.hpp"
#include "src/la/cg.hpp"
#include "src/la/cholesky.hpp"
#include "src/parallel/thread_pool.hpp"

namespace ebem::bem {

namespace {

/// The pool a solve may fan out over: null keeps the serial path.
[[nodiscard]] par::ThreadPool* usable_pool(const SolveExecution& execution) {
  return (execution.pool != nullptr && execution.pool->num_threads() > 1) ? execution.pool
                                                                          : nullptr;
}

}  // namespace

std::vector<double> solve_with_factor(const la::Cholesky& factor, const la::SymMatrix& matrix,
                                      std::span<const double> rhs,
                                      const SolveExecution& execution, SolveStats* stats) {
  // Under a geometric ordering the factor and matrix live in internal order:
  // gather the rhs, do everything there, scatter the solution at the end.
  const la::Permutation* ordering = execution.ordering;
  std::vector<double> gathered_rhs;
  if (ordering != nullptr) {
    EBEM_EXPECT(ordering->size() == rhs.size(),
                "SolveExecution::ordering does not match the system size");
    gathered_rhs = ordering->gather(rhs);
    rhs = gathered_rhs;
  }
  std::vector<double> x = factor.solve(rhs);
  if (stats != nullptr) {
    stats->iterations = 0;
    stats->factor_tiles = factor.tile_stats();
    if (execution.measure_residual) {
      // Report the achieved residual for parity with the iterative path.
      std::vector<double> r(rhs.begin(), rhs.end());
      std::vector<double> ax(rhs.size());
      matrix.multiply(x, ax, usable_pool(execution), execution.matvec_parallel_cutoff);
      la::axpy(-1.0, ax, r);
      const double b_norm = la::nrm2(rhs);
      stats->relative_residual = b_norm > 0.0 ? la::nrm2(r) / b_norm : 0.0;
    }
  }
  return ordering != nullptr ? ordering->scatter(x) : x;
}

std::vector<double> solve(const la::SymMatrix& matrix, std::span<const double> rhs,
                          const SolverOptions& options, const SolveExecution& execution,
                          SolveStats* stats) {
  par::ThreadPool* pool = usable_pool(execution);
  if (options.kind == SolverKind::kCholesky) {
    // The factor's working store inherits the matrix's storage policy, so a
    // spill-backed system factors out of core with the same budget.
    const la::Cholesky factor(
        matrix, {.block = execution.cholesky_block, .pool = pool, .storage = std::nullopt});
    return solve_with_factor(factor, matrix, rhs, execution, stats);
  }
  if (execution.ordering != nullptr) {
    // Permutation boundary: gather the external-order rhs into the matrix's
    // internal order, run the plain solve there (residuals and iteration
    // counts are permutation-invariant), scatter the solution back.
    EBEM_EXPECT(execution.ordering->size() == rhs.size(),
                "SolveExecution::ordering does not match the system size");
    const std::vector<double> internal_rhs = execution.ordering->gather(rhs);
    SolveExecution internal_execution = execution;
    internal_execution.ordering = nullptr;
    return execution.ordering->scatter(
        solve(matrix, internal_rhs, options, internal_execution, stats));
  }

  la::CgOptions cg_options;
  cg_options.tolerance = options.cg_tolerance;
  cg_options.max_iterations = options.cg_max_iterations;
  cg_options.pool = pool;
  cg_options.parallel_cutoff = execution.matvec_parallel_cutoff;
  la::CgResult result = la::conjugate_gradient(matrix, rhs, cg_options);
  EBEM_EXPECT(result.converged, "PCG failed to converge");
  if (stats != nullptr) {
    stats->iterations = result.iterations;
    stats->relative_residual = result.relative_residual;
  }
  return std::move(result.x);
}

std::vector<double> solve(const la::SymMatrix& matrix, std::span<const double> rhs,
                          const SolverOptions& options, SolveStats* stats) {
  return solve(matrix, rhs, options, SolveExecution{}, stats);
}

}  // namespace ebem::bem
