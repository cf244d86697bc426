package shardmerge

import (
	"encoding/json"
	"math/rand"
	"reflect"
	"testing"

	"adaudit/internal/streamaudit"
)

// FuzzExportRoundTrip feeds arbitrary bytes to the one place a shard's
// export enters a router: decode, merge with a good shard, serve a
// report. Nothing on that path may panic, whatever the document; and a
// document that decodes must re-encode to one that decodes to the same
// export, or a router and a shard could disagree about what was said.
func FuzzExportRoundTrip(f *testing.F) {
	w := newShardWorld(f, 3, 1)
	rng := rand.New(rand.NewSource(3))
	w.populate(f, rng, 60)
	w.buildInputs(f, rng, w.combined(f))
	good := w.exports(f)[0]
	goodDoc, err := json.Marshal(good)
	if err != nil {
		f.Fatal(err)
	}
	// The rest of the seed corpus is under testdata/fuzz: format-3
	// documents that are good, odd (negative counts, keys that are not
	// UTF-8, an envelope spelled the long way) and bad in each way the
	// decoder checks, and one document each of formats 2 and 1, the
	// second being the one that indexed out of range in a fold.
	f.Add(goodDoc)

	f.Fuzz(func(t *testing.T, doc []byte) {
		var exp streamaudit.Export
		if err := json.Unmarshal(doc, &exp); err != nil {
			return // rejected where it was decoded: it goes no further
		}
		again, err := json.Marshal(&exp)
		if err != nil {
			t.Fatalf("accepted export does not re-encode: %v", err)
		}
		var back streamaudit.Export
		if err := json.Unmarshal(again, &back); err != nil {
			t.Fatalf("re-encoded export rejected: %v\n%s", err, again)
		}
		if !reflect.DeepEqual(&back, &exp) {
			t.Fatalf("export changed across its own encoding\n%s", again)
		}
		eng, err := streamaudit.NewStatic(streamaudit.StaticConfig{Meta: w.meta}, Merge([]*streamaudit.Export{good, &exp}))
		if err != nil {
			t.Fatalf("NewStatic rejected a merge of validated exports: %v", err)
		}
		if _, err := eng.Report(w.inputs); err != nil {
			t.Fatalf("Report: %v", err)
		}
		eng.Summaries()
	})
}
