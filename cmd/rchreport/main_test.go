package main

import (
	"bytes"
	"os"
	"testing"

	"rchdroid/internal/experiments"
)

// TestReportMatchesCheckedInCopy pins REPORT.md to what rchreport
// renders: any change that moves a reported number must regenerate the
// checked-in copy (go run ./cmd/rchreport -o REPORT.md) in the same
// change.
func TestReportMatchesCheckedInCopy(t *testing.T) {
	want, err := os.ReadFile("../../REPORT.md")
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if err := experiments.WriteMarkdownReport(&got, experiments.AllResults()); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("REPORT.md differs from rchreport's output; regenerate it with go run ./cmd/rchreport -o REPORT.md")
	}
}
