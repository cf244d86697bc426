package store

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"sync"
	"testing"
	"time"
)

// logView is what one scan of the record log says the index must
// hold: each campaign's record IDs in log order, and the distinct
// publishers of each campaign and of the whole log ("").
type logView struct {
	ids  map[string][]int64
	pubs map[string][]string
}

func scanLog(s *Store) logView {
	v := logView{ids: map[string][]int64{}, pubs: map[string][]string{}}
	sets := map[string]map[string]bool{"": {}}
	s.Visit(func(im *Impression) bool {
		v.ids[im.CampaignID] = append(v.ids[im.CampaignID], im.ID)
		if sets[im.CampaignID] == nil {
			sets[im.CampaignID] = map[string]bool{}
		}
		sets[im.CampaignID][im.Publisher] = true
		sets[""][im.Publisher] = true
		return true
	})
	for c, set := range sets {
		list := make([]string, 0, len(set))
		for p := range set {
			list = append(list, p)
		}
		sort.Strings(list)
		v.pubs[c] = list
	}
	return v
}

func campaignIDs(s *Store, campaignID string) []int64 {
	var ids []int64
	s.VisitCampaign(campaignID, func(im *Impression) bool {
		ids = append(ids, im.ID)
		return true
	})
	return ids
}

// checkIndexAgainstLog holds the index to the log at a quiescent
// point: VisitCampaign is the log filtered by campaign in log order,
// CampaignLen its length, Campaigns sorted and complete, Publishers
// the distinct set of a scan.
func checkIndexAgainstLog(t *testing.T, s *Store, campaigns []string) logView {
	t.Helper()
	v := scanLog(s)
	var want []string
	for c := range v.ids {
		want = append(want, c)
	}
	sort.Strings(want)
	if got := s.Campaigns(); !slices.Equal(got, want) {
		t.Fatalf("Campaigns() = %v, the log holds %v", got, want)
	}
	for _, c := range campaigns {
		if got := campaignIDs(s, c); !slices.Equal(got, v.ids[c]) {
			t.Fatalf("VisitCampaign(%s) is not the log filtered by campaign: %s", c, firstDiff(got, v.ids[c]))
		}
		if got := s.CampaignLen(c); got != len(v.ids[c]) {
			t.Fatalf("CampaignLen(%s) = %d, the log holds %d", c, got, len(v.ids[c]))
		}
		if got := s.Publishers(c); !slices.Equal(got, v.pubs[c]) {
			t.Fatalf("Publishers(%s) = %v, a scan finds %v", c, got, v.pubs[c])
		}
	}
	if got := s.Publishers(""); !slices.Equal(got, v.pubs[""]) {
		t.Fatalf("Publishers(\"\") = %v, a scan finds %v", got, v.pubs[""])
	}
	return v
}

// firstDiff says where two ID sequences part, without printing them.
func firstDiff(got, want []int64) string {
	i := 0
	for i < len(got) && i < len(want) && got[i] == want[i] {
		i++
	}
	return fmt.Sprintf("%d rows against %d, first difference at position %d", len(got), len(want), i)
}

// isPrefix reports whether got is a prefix of final.
func isPrefix(got, final []int64) bool {
	return len(got) <= len(final) && slices.Equal(got, final[:len(got)])
}

// Property: under random interleavings of Insert, Merge and
// InsertConversion from several goroutines, with readers running, the
// one index stays the log filtered by campaign. At every quiescent
// point the index is checked against a scan; every VisitCampaign that
// ran while writers were inserting must have seen a prefix of that
// campaign's final order — never a gap, a repeat or a foreign record —
// and CampaignLen never runs ahead of what a visit can reach.
func TestIndexUnderInterleavingsProperty(t *testing.T) {
	const (
		seeds, rounds   = 12, 3
		writers, perRun = 4, 120
		readers         = 2
	)
	campaigns := []string{"c0", "c1", "c2", "c3", "c4", "never-inserted"}
	for seed := int64(1); seed <= seeds; seed++ {
		s := New()
		checkIndexAgainstLog(t, s, campaigns)
		for round := 0; round < rounds; round++ {
			var wg sync.WaitGroup
			stop := make(chan struct{})
			for w := 0; w < writers; w++ {
				wg.Add(1)
				go func(rng *rand.Rand, w int) {
					defer wg.Done()
					var mine []int64
					for i := 0; i < perRun; i++ {
						switch op := rng.Intn(10); {
						case op < 7 || len(mine) == 0:
							id, err := s.Insert(Impression{
								// Campaigns appear at different times: c4's first row
								// comes late in most schedules.
								CampaignID: campaigns[rng.Intn(1+min(4, (round*perRun+i)/40))],
								Publisher:  fmt.Sprintf("p%d.example", rng.Intn(9)),
								UserKey:    fmt.Sprintf("u%d-%d", w, rng.Intn(50)),
								Timestamp:  time.Unix(int64(i+1), 0),
							})
							if err != nil {
								t.Error(err)
								return
							}
							mine = append(mine, id)
						case op < 9:
							if err := s.Merge(mine[rng.Intn(len(mine))], Continuation{Exposure: time.Second, Clicks: 1}); err != nil {
								t.Error(err)
								return
							}
						default:
							if _, err := s.InsertConversion(Conversion{
								CampaignID: campaigns[rng.Intn(5)], UserKey: "u", Action: "buy", Timestamp: time.Unix(1, 0),
							}); err != nil {
								t.Error(err)
								return
							}
						}
					}
				}(rand.New(rand.NewSource(seed*1000+int64(round*writers+w))), w)
			}

			// Each visit must extend the reader's previous one, so holding
			// the last to the round's final order holds them all.
			last := make([]map[string][]int64, readers)
			var rwg sync.WaitGroup
			for r := 0; r < readers; r++ {
				last[r] = map[string][]int64{}
				rwg.Add(1)
				go func(prev map[string][]int64, r int) {
					defer rwg.Done()
					for i := 0; ; i++ {
						select {
						case <-stop:
							return
						default:
						}
						c := campaigns[(i+r)%len(campaigns)]
						n := s.CampaignLen(c)
						ids := campaignIDs(s, c)
						if len(ids) < n {
							t.Errorf("CampaignLen(%s) = %d, a later visit reached only %d rows", c, n, len(ids))
						}
						if !isPrefix(prev[c], ids) {
							t.Errorf("VisitCampaign(%s) does not extend the visit before it: %s", c, firstDiff(prev[c], ids))
						}
						prev[c] = ids
						if cs := s.Campaigns(); !sort.StringsAreSorted(cs) {
							t.Errorf("Campaigns() not sorted: %v", cs)
						}
						if ps := s.Publishers(c); !sort.StringsAreSorted(ps) {
							t.Errorf("Publishers(%s) not sorted: %v", c, ps)
						}
					}
				}(last[r], r)
			}
			wg.Wait()
			close(stop)
			rwg.Wait()
			if t.Failed() {
				t.Fatalf("seed %d round %d", seed, round)
			}

			final := checkIndexAgainstLog(t, s, campaigns)
			for r := range last {
				for c, ids := range last[r] {
					if !isPrefix(ids, final.ids[c]) {
						t.Fatalf("seed %d round %d: a concurrent VisitCampaign(%s) did not see a prefix of the final order: %s",
							seed, round, c, firstDiff(ids, final.ids[c]))
					}
				}
			}
		}
	}
}
