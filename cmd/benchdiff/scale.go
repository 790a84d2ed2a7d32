package main

import (
	"fmt"
	"io"

	"repro/internal/scaletable"
)

// scale renders the ladder file (default SCALE.json) as markdown.
func scale(args []string, stdout io.Writer) error {
	path := "SCALE.json"
	if len(args) > 0 {
		path = args[0]
	}
	es, err := scaletable.Load(path)
	if err != nil {
		return err
	}
	if len(es) == 0 {
		fmt.Fprintf(stdout, "benchdiff scale: no entries in %s\n", path)
		return nil
	}
	fmt.Fprint(stdout, scaletable.Markdown(es))
	return nil
}
