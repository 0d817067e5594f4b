package core

import "sync/atomic"

// Stats holds always-on operation counters. They are cheap (contended only
// on rare paths) and power the paper's §4.6.4 retry-rate measurements and
// the maintenance/ablation benchmarks.
type Stats struct {
	RootRetries    atomic.Int64 // retries from the root (observed splits/deletes)
	LocalRetries   atomic.Int64 // local retries (observed inserts, link chases)
	Splits         atomic.Int64 // border + interior node splits
	RunSplits      atomic.Int64 // the border splits cut after an ascending run's new key (splitPoint)
	TwigCreations  atomic.Int64 // suffix keys joined by a second key of their slice (makeTwig)
	LayerCreations atomic.Int64 // twigs that outgrew twigCap and became trie layers (§4.6.3)
	NodeDeletes    atomic.Int64 // border/interior nodes removed (§4.6.5)
	LayerCollapses atomic.Int64 // empty layers collapsed by maintenance
	SlotReuses     atomic.Int64 // inserts into previously-used slots (vinsert bumps)
	BatchFallbacks atomic.Int64 // keys a GetBatchInto wave met a writer on and handed to Get
}

// StatsSnapshot is a point-in-time copy of Stats.
type StatsSnapshot struct {
	RootRetries    int64
	LocalRetries   int64
	Splits         int64
	RunSplits      int64
	TwigCreations  int64
	LayerCreations int64
	NodeDeletes    int64
	LayerCollapses int64
	SlotReuses     int64
	BatchFallbacks int64
}

func (s *Stats) snapshot() StatsSnapshot {
	return StatsSnapshot{
		RootRetries:    s.RootRetries.Load(),
		LocalRetries:   s.LocalRetries.Load(),
		Splits:         s.Splits.Load(),
		RunSplits:      s.RunSplits.Load(),
		TwigCreations:  s.TwigCreations.Load(),
		LayerCreations: s.LayerCreations.Load(),
		NodeDeletes:    s.NodeDeletes.Load(),
		LayerCollapses: s.LayerCollapses.Load(),
		SlotReuses:     s.SlotReuses.Load(),
		BatchFallbacks: s.BatchFallbacks.Load(),
	}
}
