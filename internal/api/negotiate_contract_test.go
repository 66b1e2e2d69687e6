package api_test

import (
	"bytes"
	"fmt"
	"net/http"
	"regexp"
	"sort"
	"strings"
	"testing"
	"time"

	"seqstore/internal/cluster"
	"seqstore/internal/core"
	"seqstore/internal/dataset"
	"seqstore/internal/matio"
	"seqstore/internal/seqerr"
	"seqstore/internal/server"
	"seqstore/internal/store"
)

// The contract row "a shard answers JSON unless asked for a frame": a
// store node's binary encoding is for a caller that names it in Accept.
// Everyone else — curl, a browser, an older proxy — gets the JSON body it
// always got, and a proxy whose shards answer JSON serves the same bytes
// and the same ledger as one whose shards answer frames.

// stripAccept is a shard that does not speak frames: it serves its node's
// answers to a request whose Accept header is gone.
func stripAccept(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		r.Header.Del("Accept")
		h.ServeHTTP(w, r)
	})
}

// damagedRows is a store whose rows from bad on fail as a damaged file
// does, so an aggregate touching them is refused by the store node itself.
type damagedRows struct {
	store.Store
	bad int
}

func (d damagedRows) damaged(i int) error {
	return seqerr.Corrupt("/data/shard.sqz", 3, int64(i), "page checksum mismatch")
}

func (d damagedRows) Cell(i, j int) (float64, error) {
	if i >= d.bad {
		return 0, d.damaged(i)
	}
	return d.Store.Cell(i, j)
}

func (d damagedRows) Row(i int, dst []float64) ([]float64, error) {
	if i >= d.bad {
		return nil, d.damaged(i)
	}
	return d.Store.Row(i, dst)
}

// wrappedProxyShape is proxyShape with every shard handler passed through
// wrap (nil: unwrapped).
func wrappedProxyShape(t *testing.T, name string, shards []store.Store, wrap func(http.Handler) http.Handler) *shape {
	t.Helper()
	sh := &shape{name: name, log: &syncBuffer{}, shards: &diskRecorder{}}
	topo := &cluster.Topology{}
	lo := 0
	for s, st := range shards {
		n, _ := st.Dims()
		hi := lo + n
		if s == len(shards)-1 {
			hi = -1
		}
		var h http.Handler = server.NewHandler(st, nil, server.Options{})
		if wrap != nil {
			h = wrap(h)
		}
		topo.Shards = append(topo.Shards, cluster.Shard{Addr: listen(t, sh.shards.wrap(h)), Lo: lo, Hi: hi})
		lo += n
	}
	sh.url = listen(t, cluster.NewWithTopology(topo, cluster.Options{
		MaxBatchCells: limitCells, MaxBatchRows: limitRows, MaxBatchQueries: limitQueries,
		Logger: frontLogger(sh.log), SlowQuery: time.Nanosecond,
	}))
	return sh
}

// phoneSlices compresses the contract's phone matrix and cuts it into
// row slices at the given bounds, each wrapped by wrap when non-nil.
func phoneSlices(t *testing.T, bounds []int, wrap func(s int, st store.Store) store.Store) []store.Store {
	t.Helper()
	cfg := dataset.DefaultPhoneConfig(contractRows)
	cfg.M = contractCols
	cfg.ZeroFrac = 0
	full, err := core.Compress(matio.NewMem(dataset.GeneratePhone(cfg)), core.Options{Budget: 0.5, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	var out []store.Store
	for s := 0; s+1 < len(bounds); s++ {
		slice, err := full.SliceRows(bounds[s], bounds[s+1])
		if err != nil {
			t.Fatal(err)
		}
		var st store.Store = slice
		if wrap != nil {
			st = wrap(s, st)
		}
		out = append(out, st)
	}
	return out
}

// negotiationExchange is one request of the row, as method, path and body.
type negotiationExchange [3]string

// negotiationExchanges covers every body the proxy asks a shard for —
// cells, rows and aggregate batches — through the lone and batch forms,
// with and without explain.
func negotiationExchanges() []negotiationExchange {
	ex := []negotiationExchange{
		{"GET", "/v1/cell?i=5&j=7", ""},
		{"GET", fmt.Sprintf("/v1/cells?at=0:0,%d:3,%d:%d,1:2", contractRows/2, contractRows-1, contractCols-1), ""},
		{"GET", fmt.Sprintf("/v1/row?i=%d", contractRows/2), ""},
		{"GET", fmt.Sprintf("/v1/rows?i=0,%d:%d", contractRows/2-1, contractRows/2+1), ""},
	}
	for _, f := range []string{"sum", "avg", "stddev", "min", "max", "count"} {
		for _, e := range []bool{false, true} {
			q := fmt.Sprintf(`{"f":%q,"rows":"3:30,40","cols":"2:9","explain":%v}`, f, e)
			ex = append(ex, negotiationExchange{"POST", "/v1/aggregate", q},
				negotiationExchange{"POST", "/v1/aggregate/batch", `{"queries":[` + q + `,{"f":"median"}]}`})
		}
	}
	return ex
}

// unstable matches what two identical requests to two deployments may
// disagree on: the batch envelope's wall-clock took, an error's request id
// and a named shard's address.
var unstable = regexp.MustCompile(`^\{"took":\d+|"request_id":"[^"]*"|"addr":"[^"]*"`)

func sameBody(a, b []byte) bool {
	return bytes.Equal(unstable.ReplaceAll(a, nil), unstable.ReplaceAll(b, nil))
}

// costHeaders is a reply's X-Cost-* ledger, rendered for comparison.
func costHeaders(r reply) string {
	var keys []string
	for k := range r.header {
		if strings.HasPrefix(k, "X-Cost-") {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	var b strings.Builder
	for _, k := range keys {
		fmt.Fprintf(&b, "%s=%s ", k, r.header.Get(k))
	}
	return b.String()
}

// compareTwins sends each exchange to a and to b and fails on any
// difference in status, body or X-Cost-* ledger. It returns a's replies.
func compareTwins(t *testing.T, a, b *shape, exchanges []negotiationExchange) []reply {
	t.Helper()
	var out []reply
	for _, ex := range exchanges {
		ra, rb := a.do(t, ex[0], ex[1], ex[2], nil), b.do(t, ex[0], ex[1], ex[2], nil)
		if ra.status != rb.status || !sameBody(ra.raw, rb.raw) {
			t.Errorf("%s %s %s:\n%s: %d %s\n%s: %d %s", ex[0], ex[1], ex[2], a.name, ra.status, ra.raw, b.name, rb.status, rb.raw)
		}
		if ca, cb := costHeaders(ra), costHeaders(rb); ca != cb || ca == "" {
			t.Errorf("%s %s %s: ledger %s, with JSON shards %s", ex[0], ex[1], ex[2], ca, cb)
		}
		out = append(out, ra)
	}
	return out
}

func TestV1ContractJSONUnlessFramed(t *testing.T) {
	half := contractRows / 2
	twin := func(name string, bounds []int, wrap func(int, store.Store) store.Store) (*shape, *shape) {
		return wrappedProxyShape(t, name, phoneSlices(t, bounds, wrap), nil),
			wrappedProxyShape(t, name+" (JSON shards)", phoneSlices(t, bounds, wrap), stripAccept)
	}
	// Plain twins over healthy shards, and damaged twins whose last rows
	// fail, so a batch item is refused by a shard rather than the front door.
	twins := map[*shape]*shape{}
	damaged := map[*shape]*shape{}
	var plain []*shape
	for _, bounds := range [][]int{{0, contractRows}, {0, half, contractRows}} {
		name := fmt.Sprintf("proxy×%d pair", len(bounds)-1)
		a, b := twin(name, bounds, nil)
		twins[a] = b
		c, d := twin(name+" damaged", bounds, func(s int, st store.Store) store.Store {
			n, _ := st.Dims()
			if s != len(bounds)-2 {
				return st
			}
			return damagedRows{st, n - 4}
		})
		damaged[a] = c
		twins[c] = d
		plain = append(plain, a)
	}

	run(t, append(phoneShapes(t), plain...), []contractCase{{
		name: "a shard answers JSON unless asked for a frame", method: "GET", path: "/v1/cells?at=0:0", wantStatus: 200,
		check: func(t *testing.T, sh *shape, _ reply) {
			// Through a proxy, shards that answer JSON give the client the
			// same bytes and the same ledger as shards asked for frames. The
			// twins run first, so both sides see one request sequence.
			if stripped, ok := twins[sh]; ok {
				compareTwins(t, sh, stripped, negotiationExchanges())
				d := damaged[sh]
				refused := compareTwins(t, d, twins[d], []negotiationExchange{
					{"POST", "/v1/aggregate/batch", fmt.Sprintf(`{"queries":[{"f":"sum","rows":"0:4"},{"f":"avg","rows":"%d:%d"}]}`, contractRows-6, contractRows)},
					{"POST", "/v1/aggregate", fmt.Sprintf(`{"f":"max","rows":"0:%d"}`, contractRows)},
				})
				if r := refused[0]; r.status != 200 || !bytes.Contains(r.raw, []byte(`"status":503,"code":"corrupt"`)) {
					t.Errorf("%s: want a batch item the shard refused: %d %s", d.name, r.status, r.raw)
				}
				if r := refused[1]; r.status != 503 {
					t.Errorf("%s: want the lone aggregate the shard refused: %d %s", d.name, r.status, r.raw)
				}
			}
			// Without Accept, with JSON named and with anything accepted,
			// every body is the same JSON.
			for _, ex := range negotiationExchanges() {
				var first reply
				for k, accept := range []string{"", "application/json", "*/*"} {
					hdr := map[string]string{}
					if accept != "" {
						hdr["Accept"] = accept
					}
					r := sh.do(t, ex[0], ex[1], ex[2], hdr)
					if r.status != 200 || r.header.Get("Content-Type") != "application/json" {
						t.Fatalf("%s %s (Accept %q): %d %s: %s", ex[0], ex[1], accept, r.status, r.header.Get("Content-Type"), r.raw)
					}
					if k == 0 {
						first = r
					} else if !sameBody(r.raw, first.raw) {
						t.Errorf("%s %s: Accept %q answers %s, no Accept %s", ex[0], ex[1], accept, r.raw, first.raw)
					}
				}
			}
		},
	}})
}
