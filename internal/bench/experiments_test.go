package bench

import (
	"bytes"
	"fmt"
	"os"
	"strings"
	"testing"
)

// TestExperimentRegistry checks the one list everything else is derived
// from: well-formed entries, lookup by id, and the README table naming
// exactly the registry (a doc-drift guard). Only the instant experiments
// are run.
func TestExperimentRegistry(t *testing.T) {
	seen := map[string]bool{}
	var rows []string
	for _, e := range Experiments {
		if e.ID == "" || e.ID == "all" || e.Title == "" || e.Run == nil {
			t.Fatalf("malformed entry %+v", e)
		}
		if seen[e.ID] {
			t.Fatalf("duplicate id %q", e.ID)
		}
		seen[e.ID] = true
		if got, err := Lookup(e.ID); err != nil || got.ID != e.ID {
			t.Fatalf("Lookup(%q) = %q, %v", e.ID, got.ID, err)
		}
		rows = append(rows, fmt.Sprintf("| %s | `%s` |", e.Title, e.ID))
	}

	for _, id := range []string{"", "fig99"} {
		_, err := Lookup(id)
		if err == nil {
			t.Fatalf("Lookup(%q) succeeded", id)
		}
		for _, e := range Experiments {
			if !strings.Contains(err.Error(), e.ID) || !strings.Contains(err.Error(), e.Title) {
				t.Fatalf("Lookup(%q) error does not list %s:\n%v", id, e.ID, err)
			}
		}
	}

	for id, want := range map[string]string{"table1": "IB 4xQDR", "fig4": "DDIO, NUIOA-local"} {
		e, _ := Lookup(id)
		var buf bytes.Buffer
		if err := e.Run(&buf, Args{}); err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if !strings.Contains(buf.String(), want) {
			t.Fatalf("%s output lacks %q:\n%s", id, want, buf.String())
		}
	}

	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	_, section, ok := strings.Cut(string(readme), "## Reproducing the paper\n")
	if !ok {
		t.Fatal(`README.md has no "Reproducing the paper" section`)
	}
	section, _, _ = strings.Cut(section, "\n## ")
	var table []string
	for _, line := range strings.Split(section, "\n") {
		if strings.HasPrefix(line, "| ") && strings.HasSuffix(line, "` |") {
			table = append(table, line)
		}
	}
	if got, want := strings.Join(table, "\n"), strings.Join(rows, "\n"); got != want {
		t.Fatalf("README table is not the registry.\nREADME:\n%s\nregistry:\n%s", got, want)
	}
}
