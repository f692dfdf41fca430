// Package stats provides the sample statistics used to aggregate
// Monte-Carlo experiment results: streaming moments (Welford), order
// statistics, normal-approximation confidence intervals, and a
// least-squares line fit used to regress temporal diameters on log n.
package stats
