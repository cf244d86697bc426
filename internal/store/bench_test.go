package store

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"testing"
	"time"
)

// benchRecord is row i of a synthetic dataset: 8 campaigns, a cycle of
// 5,000 publishers, and a user, address and page URL of its own.
func benchRecord(i int) Impression {
	return Impression{
		CampaignID:  fmt.Sprintf("c%d", i%8),
		CreativeID:  "cr",
		Publisher:   fmt.Sprintf("pub%d.es", i%5000),
		PageURL:     fmt.Sprintf("http://pub%d.es/p/%d", i%5000, i),
		UserAgent:   "Mozilla/5.0",
		IPPseudonym: fmt.Sprintf("ip%d", i),
		UserKey:     fmt.Sprintf("u%d", i),
		ISP:         "isp-a",
		Country:     "ES",
		DataCenter:  "not-data-center",
		Timestamp:   time.Date(2016, 3, 29, 0, 0, 0, 0, time.UTC).Add(time.Duration(i) * time.Second),
		Exposure:    3 * time.Second,
	}
}

// BenchmarkInsert times the store's share of a commit and nothing
// else: the records are built with the timer stopped, a batch at a
// time, each with a user key no earlier row had. What is left to
// allocate is amortised — a log chunk per 1,024 rows, a posting list
// doubling, a column dictionary growing to its one value or eight —
// and reads 0 allocs/op (gated, cmd/benchgate's table); anything kept
// per user or per publisher reads at least 1.
func BenchmarkInsert(b *testing.B) {
	const batch = 1 << 13
	s := New()
	recs := make([]Impression, 0, batch)
	b.ReportAllocs()
	for done := 0; done < b.N; done += len(recs) {
		b.StopTimer()
		recs = recs[:0]
		for i := done; i < b.N && len(recs) < batch; i++ {
			recs = append(recs, benchRecord(i))
		}
		b.StartTimer()
		for i := range recs {
			if _, err := s.Insert(recs[i]); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkHeapPerRow reports what a store of 100,000 rows holds per
// row (heap-B/row), the records' own strings not counted. "repeating"
// is benchRecord's rows, whose dictionary columns repeat one value or
// eight. "client-distinct" gives every row a campaign, creative and
// User-Agent no earlier row had — the columns a client chooses — and
// "all-distinct" a new ISP, country and verdict as well: there every
// column dictionary holds an entry per row.
func BenchmarkHeapPerRow(b *testing.B) {
	const n = 100_000
	client := func(i int) Impression {
		im, tag := benchRecord(i), strconv.Itoa(i)
		im.CampaignID, im.CreativeID, im.UserAgent = "c"+tag, "cr"+tag, "Mozilla/5.0 "+tag
		return im
	}
	for _, c := range []struct {
		name string
		rec  func(int) Impression
	}{
		{"repeating", benchRecord},
		{"client-distinct", client},
		{"all-distinct", func(i int) Impression {
			im, tag := client(i), strconv.Itoa(i)
			im.ISP, im.Country, im.DataCenter = "isp"+tag, "co"+tag, "dc"+tag
			return im
		}},
	} {
		b.Run(c.name, func(b *testing.B) {
			recs := make([]Impression, n)
			for i := range recs {
				recs[i] = c.rec(i)
			}
			var before, after runtime.MemStats
			for it := 0; it < b.N; it++ {
				runtime.GC()
				runtime.ReadMemStats(&before)
				s := New()
				for i := range recs {
					if _, err := s.Insert(recs[i]); err != nil {
						b.Fatal(err)
					}
				}
				runtime.GC()
				runtime.ReadMemStats(&after)
				runtime.KeepAlive(s)
				b.ReportMetric(float64(after.HeapAlloc-before.HeapAlloc)/n, "heap-B/row")
			}
		})
	}
}

func benchStore(b *testing.B, n int) *Store {
	b.Helper()
	s := New()
	for i := 0; i < n; i++ {
		if _, err := s.Insert(benchRecord(i)); err != nil {
			b.Fatal(err)
		}
	}
	return s
}

// BenchmarkPublishersAggregate lists one campaign's distinct
// publishers: a visit of its rows collecting a set.
func BenchmarkPublishersAggregate(b *testing.B) {
	s := benchStore(b, 100_000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := s.Publishers("c3"); len(got) == 0 {
			b.Fatal("no publishers")
		}
	}
}

func BenchmarkFullScan(b *testing.B) {
	s := benchStore(b, 100_000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := 0
		s.Visit(func(*Impression) bool { n++; return true })
		if n != 100_000 {
			b.Fatal("short scan")
		}
	}
}

func BenchmarkWriteSnapshot(b *testing.B) {
	s := benchStore(b, 50_000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.WriteSnapshot(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRecoverWAL is restart time against history: one RecoverWAL
// of a 130,000-row journal into an empty store, in each format the
// replayer reads — v2 as this build writes it, v1 as JSON lines as
// older builds wrote them.
func BenchmarkRecoverWAL(b *testing.B) {
	const rows = 130_000
	dir := b.TempDir()
	paths := map[string]string{"v1": filepath.Join(dir, "v1.wal"), "v2": filepath.Join(dir, "v2.wal")}
	w, err := OpenWAL(paths["v2"], WALOptions{})
	if err != nil {
		b.Fatal(err)
	}
	s := New()
	s.AttachWAL(w)
	var v1 bytes.Buffer
	for i := 0; i < rows; i++ {
		im := benchRecord(i)
		if im.ID, err = s.Insert(im); err != nil {
			b.Fatal(err)
		}
		line, err := json.Marshal(&walEntryV1{Op: "ins", Im: &im})
		if err != nil {
			b.Fatal(err)
		}
		v1.Write(append(line, '\n'))
	}
	if err := w.Close(); err != nil {
		b.Fatal(err)
	}
	if err := os.WriteFile(paths["v1"], v1.Bytes(), 0o644); err != nil {
		b.Fatal(err)
	}
	for _, format := range []string{"v1", "v2"} {
		b.Run(format, func(b *testing.B) {
			if fi, err := os.Stat(paths[format]); err == nil {
				b.SetBytes(fi.Size())
			}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				rec, applied, err := RecoverWAL(paths[format], nil, nil)
				if err != nil || applied != rows || rec.Len() != rows {
					b.Fatalf("recovered %d records from %d entries, err %v", rec.Len(), applied, err)
				}
			}
		})
	}
}

func BenchmarkWriteCSV(b *testing.B) {
	s := benchStore(b, 50_000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.WriteCSV(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}
