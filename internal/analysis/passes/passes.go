// Package passes registers the masstree-lint analyzer suite.
package passes

import (
	"repro/internal/analysis"
	"repro/internal/analysis/passes/lockpair"
	"repro/internal/analysis/passes/noalloc"
	"repro/internal/analysis/passes/scratchalias"
	"repro/internal/analysis/passes/walchain"
)

// All returns every analyzer in the suite, in reporting order.
func All() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		lockpair.Analyzer,
		noalloc.Analyzer,
		scratchalias.Analyzer,
		walchain.Analyzer,
	}
}
