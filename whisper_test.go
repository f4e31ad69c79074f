package whisper

import (
	"bytes"
	"testing"
)

func TestSuiteComplete(t *testing.T) {
	// The paper's Table 1 lists ten applications; N-store contributes two
	// workloads, so the suite has eleven entries.
	names := Names()
	want := []string{"echo", "ycsb", "tpcc", "redis", "ctree", "hashmap",
		"vacation", "memcached", "nfs", "exim", "mysql"}
	if len(names) != len(want) {
		t.Fatalf("suite = %v", names)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("suite[%d] = %s, want %s", i, names[i], want[i])
		}
	}
}

func TestLayersMatchPaper(t *testing.T) {
	layers := map[string]string{
		"echo": "native", "ycsb": "native", "tpcc": "native",
		"redis": "nvml", "ctree": "nvml", "hashmap": "nvml",
		"vacation": "mnemosyne", "memcached": "mnemosyne",
		"nfs": "pmfs", "exim": "pmfs", "mysql": "pmfs",
	}
	for _, b := range Benchmarks() {
		if b.Layer != layers[b.Name] {
			t.Errorf("%s layer = %s, want %s", b.Name, b.Layer, layers[b.Name])
		}
	}
}

func TestRunUnknown(t *testing.T) {
	if _, err := Run("nope", Config{}); err == nil {
		t.Fatal("unknown benchmark accepted")
	}
}

func TestRunSmall(t *testing.T) {
	rep, err := Run("hashmap", Config{Clients: 2, Ops: 20, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if rep.App != "hashmap" || rep.Layer != "nvml" {
		t.Fatalf("report identity: %s/%s", rep.App, rep.Layer)
	}
	if rep.TotalEpochs == 0 || rep.Transactions == 0 {
		t.Fatalf("empty report: %+v", rep)
	}
	if rep.String() == "" {
		t.Fatal("empty String()")
	}
}

func TestRunDeterministic(t *testing.T) {
	a, _ := Run("ctree", Config{Clients: 2, Ops: 15, Seed: 9})
	b, _ := Run("ctree", Config{Clients: 2, Ops: 15, Seed: 9})
	if a.TotalEpochs != b.TotalEpochs || a.MedianTxEpochs != b.MedianTxEpochs {
		t.Fatal("same seed, different reports")
	}
	c, _ := Run("ctree", Config{Clients: 2, Ops: 15, Seed: 10})
	if a.Trace.Events() == c.Trace.Events() && a.TotalEpochs == c.TotalEpochs {
		// Weak check; different seeds usually shift the interleaving.
		t.Log("warning: different seeds produced identical shapes")
	}
}

func TestTraceEncodeDecodeRoundTrip(t *testing.T) {
	rep, err := Run("redis", Config{Ops: 50, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := rep.Trace.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	tr2, err := DecodeTrace(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	fr, err := AnalyzeReaderFused(&buf, FusedConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if rep2 := fr.Report; rep2.TotalEpochs != rep.TotalEpochs || rep2.SelfDeps != rep.SelfDeps {
		t.Fatal("analysis changed across encode/decode")
	}
	if tr2.App() != "redis" || tr2.Layer() != "nvml" || tr2.Events() == 0 {
		t.Fatal("trace metadata lost")
	}
}

func TestSimulateHOPS(t *testing.T) {
	rep, err := Run("hashmap", Config{Clients: 2, Ops: 40, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	norm := SimulateHOPS(rep.Trace, DefaultHOPSConfig())
	if len(norm) != 5 {
		t.Fatalf("models = %d", len(norm))
	}
	if norm["x86-64 (NVM)"] != 1.0 {
		t.Fatalf("baseline = %v", norm["x86-64 (NVM)"])
	}
	if !(norm["HOPS (NVM)"] < 1.0) {
		t.Errorf("HOPS (%v) not faster than baseline", norm["HOPS (NVM)"])
	}
	if !(norm["IDEAL (NON-CC)"] <= norm["HOPS (PWQ)"]) {
		t.Errorf("IDEAL (%v) slower than HOPS PWQ (%v)",
			norm["IDEAL (NON-CC)"], norm["HOPS (PWQ)"])
	}
	for _, name := range HOPSModels() {
		if _, ok := norm[name]; !ok {
			t.Errorf("model %q missing from results", name)
		}
	}
}

func TestSortedCopy(t *testing.T) {
	in := []int{3, 1, 2}
	out := SortedCopy(in)
	if out[0] != 1 || out[2] != 3 || in[0] != 3 {
		t.Fatal("SortedCopy wrong or mutated input")
	}
}

// TestParallelSuiteMatchesSerial asserts the parallel runner's contract:
// for a fixed seed, running the suite with a worker pool produces reports
// and raw traces byte-identical to serial execution — scheduling the runs
// concurrently must not perturb any simulated outcome.
func TestParallelSuiteMatchesSerial(t *testing.T) {
	cfg := Config{Ops: 10, Seed: 13}
	serial, err := RunAll(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{4, 64} {
		par, err := RunAllParallel(cfg, workers)
		if err != nil {
			t.Fatal(err)
		}
		if len(par) != len(serial) {
			t.Fatalf("workers=%d: %d reports, want %d", workers, len(par), len(serial))
		}
		for i := range serial {
			if got, want := par[i].String(), serial[i].String(); got != want {
				t.Errorf("workers=%d: %s report diverged:\n got: %s\nwant: %s",
					workers, serial[i].App, got, want)
			}
			var sb, pb bytes.Buffer
			if err := serial[i].Trace.Encode(&sb); err != nil {
				t.Fatal(err)
			}
			if err := par[i].Trace.Encode(&pb); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(sb.Bytes(), pb.Bytes()) {
				t.Errorf("workers=%d: %s raw trace not byte-identical to serial",
					workers, serial[i].App)
			}
		}
	}
}

func TestEverySuiteMemberRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("full suite sweep in long mode only")
	}
	for _, b := range Benchmarks() {
		rep, err := Run(b.Name, Config{Clients: 2, Ops: 10, Seed: 5})
		if err != nil {
			t.Fatalf("%s: %v", b.Name, err)
		}
		if rep.TotalEpochs == 0 {
			t.Errorf("%s: no epochs", b.Name)
		}
		if rep.EpochsPerSecond <= 0 {
			t.Errorf("%s: zero epoch rate", b.Name)
		}
	}
}
