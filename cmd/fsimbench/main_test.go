package main

import (
	"os"
	"regexp"
	"strings"
	"testing"
)

// TestDocsNameOnlyRegisteredExperiments holds every document that tells a
// reader to run an experiment to experimentList: a `-experiment <name>`
// or `"<name>" experiment` that names none would exit non-zero for
// whoever followed it. "all" is the flag's own keyword and "nosuch" is the
// name CI passes to check exactly that exit.
func TestDocsNameOnlyRegisteredExperiments(t *testing.T) {
	valid := map[string]bool{"all": true, "nosuch": true}
	for _, name := range experimentNames() {
		valid[name] = true
	}
	mentions := []*regexp.Regexp{
		regexp.MustCompile(`-experiment[ =]+([\w|.]+)`),
		regexp.MustCompile(`"(\w+)"\s+(?://\s+)?(?:fsimbench\s+)?experiment`),
	}
	for _, doc := range []string{
		"../../README.md",
		"../../backlog.go",
		"../../.github/workflows/ci.yml",
		"../../.claude/skills/verify/SKILL.md",
	} {
		src, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		if doc == "../../backlog.go" {
			// The package doc only: the code below it is compiled, not read.
			src = []byte(strings.SplitN(string(src), "\npackage backlog\n", 2)[0])
		}
		for _, re := range mentions {
			for _, m := range re.FindAllStringSubmatch(string(src), -1) {
				// `-experiment fig5|...|levels` lists several names.
				for _, name := range strings.FieldsFunc(m[1], func(r rune) bool { return r == '|' || r == '.' }) {
					if !valid[name] {
						t.Errorf("%s: %q names experiment %q, which fsimbench does not have", doc, m[0], name)
					}
				}
			}
		}
	}
}
