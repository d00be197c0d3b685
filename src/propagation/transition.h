// Message-passing (transition) matrix construction.
//
// Ã = D^{-1}(A + I) with D the degree matrix of A + I (paper §IV-C2 with
// r = 0): row-stochastic, off-diagonal entries 1/(k_i+1), diagonal
// 1/(k_i+1). The generalized form of Lemma 1 clips off-diagonal entries at
// p <= 1/2 and routes the clipped mass back to the diagonal; p = 1/2
// reproduces the standard normalization exactly (1/(k_i+1) <= 1/2 whenever
// k_i >= 1). The clipped variant exists so the Lemma 1 property tests can
// exercise the general statement.
#ifndef GCON_PROPAGATION_TRANSITION_H_
#define GCON_PROPAGATION_TRANSITION_H_

#include <cstdint>
#include <vector>

#include "graph/graph.h"
#include "sparse/csr_matrix.h"

namespace gcon {

/// The Lemma 1 clip of the standard normalization.
inline constexpr double kStandardTransitionClip = 0.5;

/// Builds the row-stochastic transition matrix Ã. `p` is the Lemma 1
/// off-diagonal clip. Every row comes from AppendTransitionRow.
CsrMatrix BuildTransition(const Graph& graph,
                          double p = kStandardTransitionClip);

/// Appends row `self` of Ã to (col_idx, values) in column order: each of
/// the k `neighbors` gets min(1/(k+1), p), and the diagonal, at its sorted
/// position, gets 1 minus that value subtracted k times (repeated
/// subtraction, not 1 - k*off: the bits differ). `neighbors` must be sorted
/// ascending and distinct and must not contain `self`. This is the one
/// definition of a transition entry; serving rebuilds private-edge and
/// inductive rows with it.
void AppendTransitionRow(int self, const std::vector<int>& neighbors,
                         double p, std::vector<std::int32_t>* col_idx,
                         std::vector<double>* values);

}  // namespace gcon

#endif  // GCON_PROPAGATION_TRANSITION_H_
