package server

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// TestStatsFtabBlock: with a configured prefix-table order, a completed job
// leaves a cached index whose table shows up in /api/stats — order, bytes,
// and lookup counters (every short-read search that consulted the table).
func TestStatsFtabBlock(t *testing.T) {
	refFasta, readsFastq, _ := testData(t)
	s := openServer(t, Config{FtabK: 4})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	submitJob(t, s, ts, map[string]string{"backend": "cpu"},
		map[string][]byte{"reference": refFasta, "reads": readsFastq})
	s.Wait()

	st := getStats(t, ts)
	if st.Ftab.K != 4 {
		t.Errorf("stats ftab k = %d, want 4", st.Ftab.K)
	}
	// One cached index: 4^4 lower bounds and a terminal, 4 bytes each, and
	// the table's fixed part.
	if want := 4*(1<<8+1) + 64; st.Ftab.SizeBytes != want {
		t.Errorf("stats report %d ftab bytes for one cached k = 4 table, want %d", st.Ftab.SizeBytes, want)
	}
	// Every read is 40 bp >= k over the pure-ACGT alphabet, so both
	// orientations of every read hit the table.
	if st.Ftab.Hits == 0 || st.Ftab.Misses != 0 || st.Ftab.Short != 0 {
		t.Errorf("lookup counters hits=%d misses=%d short=%d", st.Ftab.Hits, st.Ftab.Misses, st.Ftab.Short)
	}

	// The scrape-time metrics expose the same figures.
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`bwaver_ftab_lookups_total{result="hit"}`,
		`bwaver_ftab_bytes`,
	} {
		if !strings.Contains(string(body), want) {
			t.Errorf("/metrics missing %s", want)
		}
	}
}

// TestStatsFtabDisabled: the zero-value config builds no table and the stats
// block stays zero — the pre-ftab behavior.
func TestStatsFtabDisabled(t *testing.T) {
	refFasta, readsFastq, _ := testData(t)
	s := openServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	submitJob(t, s, ts, map[string]string{"backend": "cpu"},
		map[string][]byte{"reference": refFasta, "reads": readsFastq})
	s.Wait()

	st := getStats(t, ts)
	if st.Ftab.K != 0 || st.Ftab.SizeBytes != 0 || st.Ftab.Hits != 0 {
		t.Errorf("disabled ftab leaked into stats: %+v", st.Ftab)
	}
}
