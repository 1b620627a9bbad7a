// AGM graph sketches [AGM12]: dynamic connectivity and spanning forests
// from linear measurements.
//
// The paper's introduction singles out Ahn–Guha–McGregor (PODS 2012) as
// the key database-community result on cut sketching: Õ(n/ε²) linear
// measurements suffice to (1+ε)-approximate all cuts, and the same
// machinery gives connectivity under edge insertions *and deletions*.
// This module implements that machinery's core:
//
//  * every vertex v maintains one ℓ₀-sampler per round over the
//    edge-coordinate space, with edge {u, v} (u < v) written as +1 into u's
//    vector and −1 into v's — so summing a component's vectors cancels
//    internal edges and leaves exactly the boundary. All samplers live in
//    one flat array of L0Buckets indexed [round][vertex][level], stored
//    exact-level (l0_sampler.h): an update costs two hash calls per round
//    plus one bucket add in each of the two endpoint rows, at the
//    coordinate's deepest level;
//  * a spanning forest is extracted by Boruvka rounds: each round merges
//    component sketches (linearity!) and ℓ₀-samples one outgoing edge per
//    component, using a fresh sampler copy per round for independence.
//
// Because the sketch is linear, edge-disjoint parts can be sketched on
// different servers and merged at a coordinator — the same distributed
// pattern as src/distributed, with deletions supported.

#ifndef DCS_STREAM_AGM_SKETCH_H_
#define DCS_STREAM_AGM_SKETCH_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "graph/types.h"
#include "graph/ugraph.h"
#include "stream/l0_sampler.h"
#include "util/status.h"

namespace dcs {

class AgmConnectivitySketch {
 public:
  // `rounds` independent sampler copies = Boruvka rounds supported;
  // pass 0 to use the default ceil(log2 n) + 2. Sketches must share
  // (n, rounds, seed) to be mergeable.
  AgmConnectivitySketch(int num_vertices, int rounds, uint64_t seed);

  int num_vertices() const { return num_vertices_; }
  int rounds() const { return rounds_; }

  // Dynamic unweighted edge updates (parallel edges stack; a removal must
  // match a prior insertion or the sketch's vector goes negative, which
  // still cancels correctly as long as the final multiset is a graph).
  void AddEdge(VertexId u, VertexId v);
  void RemoveEdge(VertexId u, VertexId v);

  // The `row` endpoint's half of adding delta copies of edge {row, other}:
  // +delta at the edge's coordinate in row's samplers if row < other, else
  // −delta. No other vertex's row is touched, so callers that own disjoint
  // vertex ranges may apply halves to one sketch concurrently.
  // UpdateRow(u, v, d) plus UpdateRow(v, u, d) is exactly one full update
  // of {u, v} by d (AddEdge for d = 1, RemoveEdge for d = −1).
  void UpdateRow(VertexId row, VertexId other, int64_t delta);

  // Adds all edges recorded in `other` (linearity; edge-disjoint parts).
  // Requires matching (n, rounds, seed) — aborts on mismatch (programmer
  // error in a single-process pipeline).
  void MergeFrom(const AgmConnectivitySketch& other);

  // Status-returning merge for paths fed by peers or configuration — the
  // streaming ingestion/epoch-seal path and anything server-shaped: a
  // mismatched (n, rounds, seed) surfaces kInvalidArgument instead of
  // taking the process down (DESIGN.md §7 recoverable-error convention).
  Status TryMergeFrom(const AgmConnectivitySketch& other);

  // FNV-style hash of every linear measurement (all sampler words, in a
  // fixed order; each level as its suffix sum, so the value does not depend
  // on the exact-level storage) plus the (n, rounds, seed) identity. Two
  // sketches digest equal iff their maintained state is bit-identical (up
  // to hash collisions) — the check the streaming tests and bench_stream
  // use to assert that inserter count and flush interleaving do not change
  // the final sketch.
  uint64_t Digest() const;

  // True iff, in every round, the rows of all vertices sum to zero bucket
  // by bucket. A whole edge update adds +e and −e at the same level of its
  // two endpoint rows, so every sketch of whole updates passes; one that
  // holds a lone UpdateRow half fails (whp). A consistency check for tests.
  bool RoundSumsAreZero() const;

  // Extracts a spanning forest via Boruvka over the sketches. Whp the
  // result spans every connected component; with bounded rounds or unlucky
  // sampling it may under-connect (never over-connect: every returned edge
  // is a real edge whp). The const overload runs on a copy of the
  // measurements; the rvalue overload runs in place on this sketch's own
  // (same forest, one copy fewer), leaving them merged by component.
  std::vector<Edge> SpanningForest() const&;
  std::vector<Edge> SpanningForest() &&;

  // Number of connected components implied by SpanningForest().
  int CountComponents() const;
  bool IsConnected() const;

  // Total size of the maintained linear measurements, in bits.
  int64_t SizeInBits() const;
  // Number of scalar linear measurements maintained.
  int64_t MeasurementCount() const;

 private:
  // Adds delta·(e_low − e_high) at the edge's coordinate, low < high.
  void Update(VertexId u, VertexId v, int64_t delta);
  // Offset of the (round, vertex) row in a bucket array.
  size_t RowOffset(int round, int vertex) const {
    return (static_cast<size_t>(round) * static_cast<size_t>(num_vertices_) +
            static_cast<size_t>(vertex)) *
           static_cast<size_t>(levels_);
  }

  int num_vertices_;
  int rounds_;
  uint64_t seed_;
  int levels_;  // buckets per sampler row
  // Per round: the level-hash seed and the check-hash seed of its samplers.
  std::vector<uint64_t> round_seeds_;
  std::vector<uint64_t> check_seeds_;
  // buckets_[RowOffset(round, vertex) + level], exact-level: the bucket of
  // level j holds the coordinates whose deepest level is j.
  std::vector<L0Bucket> buckets_;
};

// Convenience: sketch an existing unweighted graph.
AgmConnectivitySketch SketchGraph(const UndirectedGraph& graph, int rounds,
                                  uint64_t seed);

// k-edge-connectivity from linear measurements ([AGM12], Section on
// k-connectivity): maintain k independent connectivity sketches; at query
// time extract a spanning forest F₁ from the first, *delete* F₁'s edges
// from the second (linearity makes this a local subtraction), extract F₂,
// and so on. The union F₁ ∪ … ∪ F_k is a sparse certificate that preserves
// every cut up to value k — the streaming analogue of
// mincut/SparseCertificate — so cuts of size < k (in particular the global
// min cut, if below k) survive exactly.
class AgmKConnectivitySketch {
 public:
  // `k` nested forests; rounds/seed as in AgmConnectivitySketch.
  AgmKConnectivitySketch(int num_vertices, int k, int rounds, uint64_t seed);

  int num_vertices() const { return num_vertices_; }
  int k() const { return static_cast<int>(layers_.size()); }

  void AddEdge(VertexId u, VertexId v);
  void RemoveEdge(VertexId u, VertexId v);
  // AgmConnectivitySketch::UpdateRow on every layer.
  void UpdateRow(VertexId row, VertexId other, int64_t delta);
  // Aborting / Status-returning merges, as in AgmConnectivitySketch.
  void MergeFrom(const AgmKConnectivitySketch& other);
  Status TryMergeFrom(const AgmKConnectivitySketch& other);

  // Combined digest over all k layers (see AgmConnectivitySketch::Digest).
  uint64_t Digest() const;

  // The union of the k nested forests (unit weights). Whp it preserves the
  // edge count of every cut of value < k and contains ≥ min(cut, k) edges
  // across every cut. The rvalue overload peels the forests in place
  // (same certificate, no copy of the layers), as SpanningForest() &&.
  UndirectedGraph Certificate() const&;
  UndirectedGraph Certificate() &&;

  // The certificate's global min cut. Whp this equals the true min cut
  // whenever that is below k; otherwise it lies in [k, true min cut]
  // (the certificate is a subgraph, so it never overstates any cut).
  double MinCutUpToK() const;
  // MinCutUpToK() of an already extracted certificate: 0 if it is empty
  // or disconnected, else its Stoer–Wagner min cut.
  static double CertificateMinCut(const UndirectedGraph& certificate);

  int64_t SizeInBits() const;

 private:
  int num_vertices_;
  std::vector<AgmConnectivitySketch> layers_;
};

}  // namespace dcs

#endif  // DCS_STREAM_AGM_SKETCH_H_
