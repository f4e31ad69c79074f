package main

import (
	"bytes"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"github.com/whisper-pm/whisper"
)

func TestRunErrorPaths(t *testing.T) {
	tmp := t.TempDir()

	traceDir := saveHashmap(t)

	corruptDir := filepath.Join(tmp, "corrupt")
	if err := os.MkdirAll(corruptDir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(corruptDir, "bad.wspr"), []byte("not a trace"), 0o644); err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name     string
		args     []string
		wantCode int
		wantErr  string
	}{
		{
			name:     "no input selected",
			args:     nil,
			wantCode: 1,
			wantErr:  "nothing to analyze",
		},
		{
			name:     "unknown flag",
			args:     []string{"-nope"},
			wantCode: 2,
			wantErr:  "flag provided but not defined",
		},
		{
			name:     "empty trace dir",
			args:     []string{"-dir", tmp},
			wantCode: 1,
			wantErr:  "nothing to analyze",
		},
		{
			name:     "corrupt trace file",
			args:     []string{"-dir", corruptDir},
			wantCode: 1,
			wantErr:  "bad.wspr",
		},
		{
			name:     "unwritable metrics path",
			args:     []string{"-dir", traceDir, "-metrics", filepath.Join(tmp, "no-dir", "m.json")},
			wantCode: 1,
			wantErr:  "write metrics",
		},
		{
			name:     "saved trace success",
			args:     []string{"-dir", traceDir, "-fig4", "-metrics", filepath.Join(tmp, "m.json")},
			wantCode: 0,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			code := run(tc.args, &stdout, &stderr)
			if code != tc.wantCode {
				t.Fatalf("exit code = %d, want %d (stderr: %s)", code, tc.wantCode, stderr.String())
			}
			if tc.wantErr != "" && !strings.Contains(stderr.String(), tc.wantErr) {
				t.Fatalf("stderr %q does not contain %q", stderr.String(), tc.wantErr)
			}
			if tc.wantCode == 0 && !strings.Contains(stdout.String(), "Figure 4") {
				t.Fatalf("success run printed no figure:\n%s", stdout.String())
			}
		})
	}
}

// saveHashmap writes a small hashmap trace into a fresh directory and
// returns the directory.
func saveHashmap(t *testing.T) string {
	t.Helper()
	traceDir := t.TempDir()
	rep, err := whisper.Run("hashmap", whisper.Config{Clients: 2, Ops: 10, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.Create(filepath.Join(traceDir, "hashmap.wspr"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := rep.Trace.Encode(f); err != nil {
		t.Fatal(err)
	}
	return traceDir
}

// TestDirMatchesRun asserts that analyzing saved traces changes nothing
// about the output: the suite's v2 traces, as `whisper -trace` writes
// them, render the same figures, cache table and sanitizer reports as
// regenerating the suite live. -dir reads files in glob order, so the
// comparison is line-sorted.
func TestDirMatchesRun(t *testing.T) {
	cfg := whisper.Config{Ops: 2, Seed: 1}
	traceDir := t.TempDir()
	for _, name := range whisper.Names() {
		f, err := os.Create(filepath.Join(traceDir, name+".wspr"))
		if err != nil {
			t.Fatal(err)
		}
		_, err = whisper.RunStream(name, cfg, f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			t.Fatal(err)
		}
	}

	var saved, live bytes.Buffer
	if code := run([]string{"-dir", traceDir, "-san", "-cache", "-fig3", "-fig4", "-fig5", "-amp", "-nti"}, &saved, &saved); code != 0 {
		t.Fatalf("-dir run failed: %s", saved.String())
	}
	if code := run([]string{"-run", "-ops", "2", "-seed", "1", "-san", "-cache", "-fig3", "-fig4", "-fig5", "-amp", "-nti"}, &live, &live); code != 0 {
		t.Fatalf("-run failed: %s", live.String())
	}
	sorted := func(b bytes.Buffer) string {
		lines := strings.Split(b.String(), "\n")
		sort.Strings(lines)
		return strings.Join(lines, "\n")
	}
	if sorted(saved) != sorted(live) {
		t.Errorf("-dir output differs from -run:\nsaved:\n%s\nlive:\n%s", saved.String(), live.String())
	}
}

// TestSanFlag pins the sanitizer section: -san alone prints only the
// sanitizer reports, and a clean suite exits 0.
func TestSanFlag(t *testing.T) {
	traceDir := saveHashmap(t)
	var out bytes.Buffer
	if code := run([]string{"-dir", traceDir, "-san"}, &out, &out); code != 0 {
		t.Fatalf("-san run failed: %s", out.String())
	}
	if !strings.Contains(out.String(), "pmsan: app=hashmap") {
		t.Errorf("no sanitizer report in output:\n%s", out.String())
	}
	if strings.Contains(out.String(), "Figure") {
		t.Errorf("-san alone printed figures:\n%s", out.String())
	}
}

// TestCacheFlag pins the cache section: -cache alone prints only the
// hierarchy table, and adding it to -san leaves the sanitizer reports
// byte-identical, since every analysis rides the same pass.
func TestCacheFlag(t *testing.T) {
	traceDir := saveHashmap(t)
	var cached bytes.Buffer
	if code := run([]string{"-dir", traceDir, "-cache"}, &cached, &cached); code != 0 {
		t.Fatalf("-cache run failed: %s", cached.String())
	}
	if !strings.Contains(cached.String(), "Cache hierarchy") {
		t.Errorf("-cache printed no hierarchy table:\n%s", cached.String())
	}
	if strings.Contains(cached.String(), "Figure") {
		t.Errorf("-cache alone printed figures:\n%s", cached.String())
	}

	var san, both bytes.Buffer
	if code := run([]string{"-dir", traceDir, "-san"}, &san, &san); code != 0 {
		t.Fatalf("-san run failed: %s", san.String())
	}
	if code := run([]string{"-dir", traceDir, "-san", "-cache"}, &both, &both); code != 0 {
		t.Fatalf("-san -cache run failed: %s", both.String())
	}
	if want := cached.String() + san.String(); both.String() != want {
		t.Errorf("-san -cache output is not -cache then -san:\n got:\n%s\nwant:\n%s", both.String(), want)
	}
}
