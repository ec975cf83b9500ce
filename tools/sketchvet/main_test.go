package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"repro/tools/sketchvet/vet"
)

// TestExitCodes pins the documented exit-code contract: 0 clean, 1
// findings, 2 usage/load errors.
func TestExitCodes(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want int
	}{
		{"clean", []string{"testdata/src/ctxflow/clean"}, 0},
		{"findings", []string{"testdata/src/ctxflow/bad"}, 1},
		{"suppressed", []string{"testdata/src/ctxflow/suppressed"}, 0},
		{"no-args", nil, 2},
		{"bad-flag", []string{"-definitely-not-a-flag"}, 2},
		{"missing-dir", []string{"testdata/no/such/dir"}, 2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if got := run(tc.args, &stdout, &stderr); got != tc.want {
				t.Errorf("run(%v) = %d, want %d (stderr: %s)", tc.args, got, tc.want, stderr.String())
			}
		})
	}
}

// TestBadFixturesExitOne runs the driver over every committed
// true-positive fixture package, as the CI gate does, and requires each
// to fail with exit code 1.
func TestBadFixturesExitOne(t *testing.T) {
	for _, analyzer := range []string{"atomicmix", "hotalloc", "ctxflow", "gofmt", "doccomment", "pragmas"} {
		t.Run(analyzer, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			dir := "testdata/src/" + analyzer + "/bad"
			if got := run([]string{dir}, &stdout, &stderr); got != 1 {
				t.Errorf("run(%s) = %d, want 1 (stderr: %s)", dir, got, stderr.String())
			}
			if !strings.Contains(stdout.String(), analyzer+":") {
				t.Errorf("findings for %s missing from output:\n%s", dir, stdout.String())
			}
		})
	}
}

// TestJSONOutput checks that -json emits a parseable findings array
// with the stable field names the CI artifact consumers rely on.
func TestJSONOutput(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if got := run([]string{"-json", "testdata/src/atomicmix/bad"}, &stdout, &stderr); got != 1 {
		t.Fatalf("exit = %d, want 1 (stderr: %s)", got, stderr.String())
	}
	var findings []vet.Finding
	if err := json.Unmarshal(stdout.Bytes(), &findings); err != nil {
		t.Fatalf("unmarshal -json output: %v\n%s", err, stdout.String())
	}
	if len(findings) != 1 || findings[0].Analyzer != "atomicmix" || findings[0].Pos == "" || findings[0].Message == "" {
		t.Errorf("unexpected findings: %+v", findings)
	}

	stdout.Reset()
	if got := run([]string{"-json", "testdata/src/atomicmix/clean"}, &stdout, &stderr); got != 0 {
		t.Fatalf("clean exit = %d, want 0", got)
	}
	if strings.TrimSpace(stdout.String()) != "[]" {
		t.Errorf("clean -json output = %q, want []", stdout.String())
	}
}

// TestAnalyzerEnableFlags checks that -<name>=false removes exactly
// that analyzer's findings.
func TestAnalyzerEnableFlags(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if got := run([]string{"-ctxflow=false", "testdata/src/ctxflow/bad"}, &stdout, &stderr); got != 0 {
		t.Errorf("with -ctxflow=false exit = %d, want 0 (stdout: %s)", got, stdout.String())
	}
}
