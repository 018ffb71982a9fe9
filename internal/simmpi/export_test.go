package simmpi

// MatchReference exposes matchReference to the external test package,
// which builds the workload package's programs (workload imports simmpi).
var MatchReference = matchReference
