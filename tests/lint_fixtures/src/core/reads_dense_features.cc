// Fixture: the release path reads X through the CSR store. One live dense
// read (the violation); the CSR read, a `features` data member and the
// commented-out dense read do not count.
void Encode(const Graph& graph, EncodedFeatures* out) {
  Use(graph.features());
  Use(graph.feature_csr());
  Use(out->features);
  // Use(graph.features());
}
