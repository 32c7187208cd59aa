package batch

// ResidualGraph lets the external test hold residualGraph against the
// ledger's residual (admit imports batch, so that test cannot live here).
var ResidualGraph = residualGraph
