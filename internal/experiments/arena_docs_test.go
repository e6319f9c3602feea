package experiments_test

import (
	"context"
	"os"
	"strings"
	"testing"

	"github.com/mar-hbo/hbo/internal/experiments"
)

// TestArenaDocTables re-runs the default tournament at seed 42 (what
// `hbobench -arena -seed 42` prints) and requires the ranking tables quoted
// in README.md and EXPERIMENTS.md to match it line for line, so a change to
// an entrant or to the arena cannot leave the docs stale.
func TestArenaDocTables(t *testing.T) {
	res, err := experiments.RunArena(context.Background(), experiments.ArenaConfig{Seed: 42, Jobs: 2})
	if err != nil {
		t.Fatal(err)
	}
	// README.md quotes the plain-text table as printed; EXPERIMENTS.md
	// quotes the same rows as a markdown table.
	plain := rankingTable(t, res.String())
	md := []string{
		"| Rank | Policy | Mean final cost | Mean oracle gap | Mean cum. regret | Bracket wins |",
		"|---:|---|---:|---:|---:|---:|",
	}
	for _, row := range plain[2:] {
		md = append(md, "| "+strings.Join(strings.Fields(row), " | ")+" |")
	}
	docs := []struct {
		path, marker string
		block        func([]string, int) []string
		want         []string
	}{
		{"../../README.md", "Sample ranking (seed 42", fencedBlock, plain},
		{"../../EXPERIMENTS.md", "Ranking at seed 42", pipeBlock, md},
	}
	for _, d := range docs {
		raw, err := os.ReadFile(d.path)
		if err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(string(raw), "\n")
		at := -1
		for i, l := range lines {
			if strings.HasPrefix(l, d.marker) {
				at = i
				break
			}
		}
		if at < 0 {
			t.Fatalf("%s: no line starts with %q", d.path, d.marker)
		}
		if got := d.block(lines, at+1); strings.Join(got, "\n") != strings.Join(d.want, "\n") {
			t.Errorf("%s: the seed-42 ranking table is stale; it should read\n%s\nbut reads\n%s",
				d.path, strings.Join(d.want, "\n"), strings.Join(got, "\n"))
		}
	}
}

// rankingTable returns the ranking table of an arena report (header, rule
// and one row per policy), with trailing padding trimmed.
func rankingTable(t *testing.T, report string) []string {
	t.Helper()
	lines := strings.Split(report, "\n")
	for i, l := range lines {
		if !strings.HasPrefix(l, "Rank ") {
			continue
		}
		var rows []string
		for _, r := range lines[i:] {
			if r = strings.TrimRight(r, " "); r == "" {
				break
			}
			rows = append(rows, r)
		}
		return rows
	}
	t.Fatalf("no ranking table in the arena report:\n%s", report)
	return nil
}

// fencedBlock returns the lines of the first ``` block at or after from.
func fencedBlock(lines []string, from int) []string {
	for i := from; i < len(lines); i++ {
		if strings.HasPrefix(lines[i], "```") {
			for j := i + 1; j < len(lines); j++ {
				if strings.HasPrefix(lines[j], "```") {
					return lines[i+1 : j]
				}
			}
		}
	}
	return nil
}

// pipeBlock returns the first run of lines starting with "|" at or after
// from.
func pipeBlock(lines []string, from int) []string {
	for i := from; i < len(lines); i++ {
		if strings.HasPrefix(lines[i], "|") {
			j := i
			for j < len(lines) && strings.HasPrefix(lines[j], "|") {
				j++
			}
			return lines[i:j]
		}
	}
	return nil
}
