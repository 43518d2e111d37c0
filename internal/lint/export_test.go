package lint

// AnalyzerScope exposes the scope pin table to the external tests.
var AnalyzerScope = analyzerScope
