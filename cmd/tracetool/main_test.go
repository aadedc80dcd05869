package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// sample is a small trace-v2 stream: four drops over three nodes, two
// violations (one without a detail), and unrelated events between them.
const sample = `{"at":1.0,"event":"mac.drop","node":3,"peer":7,"reason":"deadline-expired","seq":1}
{"at":1.5,"event":"phy.rx","node":3}
{"at":2.0,"event":"mac.drop","node":5,"peer":7,"reason":"load-shed","seq":2}
{"at":2.25,"event":"oracle.violation","node":9,"reason":"extra-guard","detail":"guard breach"}
{"at":3.0,"event":"mac.drop","node":3,"peer":7,"reason":"load-shed","seq":3}
{"at":3.5,"event":"oracle.violation","node":9,"reason":"capture"}
{"at":4.0,"event":"mac.drop","node":8,"peer":7,"reason":"load-shed","seq":4}
`

// tracetool runs the command line args over a file holding content and
// returns its exit code, stdout and stderr.
func tracetool(t *testing.T, content string, args ...string) (int, string, string) {
	t.Helper()
	dir := t.TempDir()
	in := filepath.Join(dir, "run.jsonl")
	if err := os.WriteFile(in, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	outF, err := os.Create(filepath.Join(dir, "stdout"))
	if err != nil {
		t.Fatal(err)
	}
	errF, err := os.Create(filepath.Join(dir, "stderr"))
	if err != nil {
		t.Fatal(err)
	}
	stdout, stderr := os.Stdout, os.Stderr
	os.Stdout, os.Stderr = outF, errF
	code := run(append(args, "-in", in))
	os.Stdout, os.Stderr = stdout, stderr
	outF.Close()
	errF.Close()
	read := func(name string) string {
		b, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		return strings.ReplaceAll(string(b), in, "run.jsonl")
	}
	return code, read("stdout"), read("stderr")
}

func TestDropsTable(t *testing.T) {
	code, out, errOut := tracetool(t, sample, "drops", "-top", "2")
	want := `4 drop(s) across 3 node(s)
  load-shed               3
  deadline-expired        1
  node   drops  breakdown
     3       2  load-shed=1 deadline-expired=1
     5       1  load-shed=1
# (1 more node(s) suppressed by -top)
`
	if code != 0 || out != want || errOut != "" {
		t.Errorf("exit %d, stderr %q, stdout:\n%s\nwant:\n%s", code, errOut, out, want)
	}
}

func TestViolationsTable(t *testing.T) {
	code, out, errOut := tracetool(t, sample, "violations")
	want := `2 violation(s) across 1 node(s)
  capture                 1
  extra-guard             1
  node violations  breakdown
     9       2  capture=1 extra-guard=1
first violations:
  t=2.250s node 9 [extra-guard] guard breach
  t=3.500s node 9 [capture] capture
`
	if code != 0 || out != want || errOut != "" {
		t.Errorf("exit %d, stderr %q, stdout:\n%s\nwant:\n%s", code, errOut, out, want)
	}
}

func TestTablesWithoutEvents(t *testing.T) {
	for cmd, want := range map[string]string{
		"drops":      "no mac.drop events\n",
		"violations": "no oracle.violation events\n",
	} {
		if code, out, _ := tracetool(t, `{"at":1.0,"event":"phy.rx","node":3}`+"\n", cmd); code != 0 || out != want {
			t.Errorf("%s: exit %d, stdout %q, want %q", cmd, code, out, want)
		}
	}
}

// TestTruncatedLastLineWarns: a run killed mid-write leaves its last
// line cut; the complete prefix is still tallied, with a warning.
func TestTruncatedLastLineWarns(t *testing.T) {
	torn := sample + `{"at":5.0,"event":"mac.drop","node":3,"pe`
	code, out, errOut := tracetool(t, torn, "drops", "-top", "0")
	if code != 0 {
		t.Fatalf("exit %d, stderr %q", code, errOut)
	}
	if !strings.HasPrefix(out, "4 drop(s) across 3 node(s)\n") {
		t.Errorf("torn line counted or prefix lost:\n%s", out)
	}
	wantWarn := "tracetool: warning: run.jsonl:8: skipping truncated trailing line (unexpected end of JSON input)\n"
	if errOut != wantWarn {
		t.Errorf("stderr %q, want %q", errOut, wantWarn)
	}
}

// TestCorruptLineMidFileFails: a bad line with more lines after it is
// corruption, not a torn tail, and fails the command.
func TestCorruptLineMidFileFails(t *testing.T) {
	lines := strings.SplitAfter(sample, "\n")
	corrupt := strings.Join(lines[:2], "") + "{not json\n" + strings.Join(lines[2:], "")
	for _, cmd := range []string{"drops", "violations"} {
		code, out, errOut := tracetool(t, corrupt, cmd)
		if code != 1 || out != "" {
			t.Errorf("%s: exit %d, stdout %q; want exit 1 and no table", cmd, code, out)
		}
		if !strings.HasPrefix(errOut, "tracetool: run.jsonl:3: ") {
			t.Errorf("%s: stderr %q does not name the corrupt line", cmd, errOut)
		}
	}
}
