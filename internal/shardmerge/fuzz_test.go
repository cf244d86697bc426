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
	// The rest of the seed corpus is under testdata/fuzz, first of all
	// the document that indexed out of range in a fold one format ago.
	f.Add(goodDoc)
	f.Add([]byte(`{"version":2,"seq":7,"campaigns":{"camp-alpha":{"users":["u"],"publishers":["p.example"],"verdicts":["manual"],"user_of":[0,0],"pub_of":[0,0],"verdict_of":[0,0],"times":[5,-5],"exposures":[1e308,0.5],"vis_measured":[true,false],"vis_frac":[0.5,2],"ips":{"ip":true},"convs":{"ghost":-3},"clicks":-1}}}`))

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
