// Package shardmerge reconstructs a single-store audit view from N
// collector shards. Each shard runs its own store + WAL + change feed +
// streamaudit engine and serves its per-campaign states as a
// streamaudit.Export container (/api/live/export, written by
// WriteExport); Merge merges those exports —
// in shard order — into one Export whose materialised report
// (streamaudit.NewStatic + Engine.Report) is reflect.DeepEqual to a
// single-store FullAudit over the concatenation of the shards' data.
//
// All the merging is audit.State.Merge: a shard's rows are appended
// after those of the shards before it, its ids remapped through the
// merged dictionaries. Shard order is load-bearing for bit-stability,
// not correctness of counts: the one order-sensitive statistic in the
// report — the float mean of the exposure summary, summed in slot order
// — then sees the samples in exactly the insertion order of a reference
// store built by concatenating the shards' datasets in the same order.
//
// The merged Seq is the sum of shard Seqs: a monotone progress
// indicator for staleness displays, not a feed position.
package shardmerge

import (
	"adaudit/internal/audit"
	"adaudit/internal/streamaudit"
)

// Merge merges per-shard exports in shard order into one combined
// export. Nil shards (a shard that failed to export) are skipped;
// callers that need all-or-nothing semantics check before calling.
// The shards are only read. A shard whose states cannot be had is
// returned itself, so every reader of the merge gets its error.
func Merge(shards []*streamaudit.Export) *streamaudit.Export {
	var seq int64
	merged := map[string]*audit.State{}
	for _, sh := range shards {
		if sh == nil {
			continue
		}
		states, err := sh.States()
		if err != nil {
			return sh
		}
		seq += sh.Seq()
		for id, st := range states {
			if merged[id] == nil {
				merged[id] = audit.NewState()
			}
			merged[id].Merge(st)
		}
	}
	return streamaudit.NewExport(seq, merged)
}
