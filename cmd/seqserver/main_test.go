package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"seqstore/internal/api"
	"seqstore/internal/core"
	"seqstore/internal/dataset"
	"seqstore/internal/matio"
	"seqstore/internal/query"
	"seqstore/internal/store"
)

// proc is one running seqserver with its captured stdout (the JSON log).
type proc struct {
	cmd *exec.Cmd
	mu  sync.Mutex
	out bytes.Buffer
}

func (p *proc) Write(b []byte) (int, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.out.Write(b)
}

func (p *proc) log() string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.out.String()
}

// await polls the process log for a pattern and returns its first submatch.
func (p *proc) await(t *testing.T, pattern string) string {
	t.Helper()
	re := regexp.MustCompile(pattern)
	for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); time.Sleep(10 * time.Millisecond) {
		if m := re.FindStringSubmatch(p.log()); m != nil {
			return m[len(m)-1]
		}
	}
	t.Fatalf("log never matched %q:\n%s", pattern, p.log())
	return ""
}

// start launches the binary on a kernel-chosen loopback port and returns
// once it logs the address it serves on.
func start(t *testing.T, bin string, args ...string) (*proc, string) {
	t.Helper()
	p := &proc{cmd: exec.Command(bin, append([]string{"-addr", "127.0.0.1:0"}, args...)...)}
	p.cmd.Stdout, p.cmd.Stderr = p, p
	if err := p.cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		p.cmd.Process.Kill()
		p.cmd.Wait()
	})
	return p, "http://" + p.await(t, `"msg":"serving","addr":"([^"]+)"`)
}

func call(t *testing.T, method, url, body string, out interface{}) int {
	t.Helper()
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if out != nil {
		if err := json.Unmarshal(raw, out); err != nil {
			t.Fatalf("%s %s: undecodable %q: %v", method, url, raw, err)
		}
	}
	return resp.StatusCode
}

// TestTopologyModeEndToEnd drives `seqserver -topology` over two `seqserver
// -store` processes — the benchmark's proxy_mixed shape, as real processes:
// cell, row, aggregate and batch through the front door bit-identical to
// the unsharded store, SIGHUP reload (good file, then broken file), the
// dead-shard 503, and a drained SIGTERM exit.
func TestTopologyModeEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the binary")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "seqserver")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}

	// -store xor -topology.
	for _, args := range [][]string{{}, {"-store", "a.sqz", "-topology", "b.json"}} {
		out, err := exec.Command(bin, args...).CombinedOutput()
		if err == nil || !strings.Contains(string(out), "exactly one of -store and -topology") {
			t.Fatalf("seqserver %v: err %v, output %q", args, err, out)
		}
	}

	const n, m, split = 64, 24, 40
	cfg := dataset.DefaultPhoneConfig(n)
	cfg.M = m
	full, err := core.Compress(matio.NewMem(dataset.GeneratePhone(cfg)), core.Options{Budget: 0.2, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	var shardFiles []string
	for s, r := range [][2]int{{0, split}, {split, n}} {
		slice, err := full.SliceRows(r[0], r[1])
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, fmt.Sprintf("shard%d.sqz", s))
		if err := store.SaveLabeled(path, slice, nil); err != nil {
			t.Fatal(err)
		}
		shardFiles = append(shardFiles, path)
	}
	_, addr0 := start(t, bin, "-store", shardFiles[0])
	_, addr1 := start(t, bin, "-store", shardFiles[1])

	topoPath := filepath.Join(dir, "cluster.json")
	writeTopo := func(a0, a1 string) {
		t.Helper()
		raw := fmt.Sprintf(`{"shards":[{"addr":%q,"lo":0,"hi":%d},{"addr":%q,"lo":%d,"hi":-1}]}`, a0, split, a1, split)
		if err := os.WriteFile(topoPath, []byte(raw), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	writeTopo(addr0, addr1)
	front, url := start(t, bin, "-topology", topoPath, "-shard-timeout", "2s")

	// Reads through the front door equal the unsharded store, bit for bit.
	checkReads := func() {
		t.Helper()
		var cell api.CellResponse
		if code := call(t, "GET", url+"/v1/cell?i=50&j=3", "", &cell); code != 200 || cell.I != 50 {
			t.Fatalf("cell: %d %+v", code, cell)
		}
		if want, _ := full.Cell(50, 3); math.Float64bits(api.NumValue(cell.Value, cell.Nonfinite)) != math.Float64bits(want) {
			t.Fatalf("cell (50,3) = %v, unsharded store %v", *cell.Value, want)
		}
		var row api.RowResponse
		if code := call(t, "GET", url+"/v1/row?i=7", "", &row); code != 200 || len(row.Values) != m {
			t.Fatalf("row: %d, %d values", code, len(row.Values))
		}
		sel := query.Selection{Rows: query.All(n)[30:50], Cols: query.All(m)}
		want := func(agg query.Aggregate) uint64 {
			v, err := query.EvaluateOpts(full, agg, sel, query.Options{Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			return math.Float64bits(v)
		}
		var agg api.AggregateResponse
		if code := call(t, "POST", url+"/v1/aggregate", `{"f":"stddev","rows":"30:50"}`, &agg); code != 200 {
			t.Fatalf("aggregate: %d", code)
		}
		if math.Float64bits(api.NumValue(agg.Value, agg.Nonfinite)) != want(query.StdDev) {
			t.Fatal("aggregate spanning both shards differs from the unsharded store")
		}
		var batch api.BatchAggregateResponse
		code := call(t, "POST", url+"/v1/aggregate/batch",
			`{"queries":[{"f":"sum","rows":"30:50"},{"f":"max","rows":"30:50"}]}`, &batch)
		if code != 200 || batch.Errors || len(batch.Items) != 2 {
			t.Fatalf("batch: %d %+v", code, batch)
		}
		for k, a := range []query.Aggregate{query.Sum, query.Max} {
			if math.Float64bits(api.NumValue(batch.Items[k].Value, batch.Items[k].Nonfinite)) != want(a) {
				t.Fatalf("batch item %d differs from the unsharded store", k)
			}
		}
	}
	checkReads()

	// SIGHUP with a valid rewrite: shard 1 moves to a new process.
	node1b, addr1b := start(t, bin, "-store", shardFiles[1])
	writeTopo(addr0, addr1b)
	if err := front.cmd.Process.Signal(syscall.SIGHUP); err != nil {
		t.Fatal(err)
	}
	front.await(t, `"msg":"(topology reloaded)"`)
	var info api.InfoResponse
	if call(t, "GET", url+"/v1/info", "", &info); len(info.Shards) != 2 || info.Shards[1].Addr != addr1b || info.Rows != n {
		t.Fatalf("info after reload: %+v", info)
	}
	checkReads()

	// SIGHUP with a broken file: logged, and the current topology keeps serving.
	if err := os.WriteFile(topoPath, []byte(`{"shards":[{"addr":"http://x","lo":5,"hi":2}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := front.cmd.Process.Signal(syscall.SIGHUP); err != nil {
		t.Fatal(err)
	}
	front.await(t, `"msg":"(topology reload failed; keeping current topology)"`)
	checkReads()

	// Kill the node now serving shard 1: a spanning aggregate is a typed 503
	// naming it, rows on the live shard still serve, health degrades.
	node1b.cmd.Process.Kill()
	node1b.cmd.Wait()
	var env api.ErrorEnvelope
	if code := call(t, "POST", url+"/v1/aggregate", `{"f":"sum"}`, &env); code != 503 ||
		env.Error.Code != api.CodeUnavailable || len(env.Error.Shards) != 1 || env.Error.Shards[0].Shard != 1 {
		t.Fatalf("dead shard: %d %+v", code, env.Error)
	}
	if code := call(t, "GET", url+"/v1/cell?i=1&j=1", "", nil); code != 200 {
		t.Fatalf("live-shard read after the kill: %d", code)
	}
	var hz api.HealthzResponse
	if call(t, "GET", url+"/v1/healthz", "", &hz); hz.Status != "degraded" || hz.Shards[1].Healthy {
		t.Fatalf("healthz after the kill: %+v", hz)
	}

	// SIGTERM drains and exits cleanly.
	if err := front.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if err := front.cmd.Wait(); err != nil {
		t.Fatalf("front door exit: %v\n%s", err, front.log())
	}
	if !strings.Contains(front.log(), "drained in-flight requests, exiting") {
		t.Fatalf("no drain line:\n%s", front.log())
	}
}
