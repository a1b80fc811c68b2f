// Command gossipdoc generates the committed reference docs from the code
// that defines them, so the docs cannot drift from the implementation:
//
//   - docs/DRIVERS.md is rendered from the internal/gossip driver
//     registry — every registered driver's description, aliases,
//     options schema and machine-readable request keys, plus the
//     distributable / warm-start / real-transport capability matrix.
//   - docs/API.md is rendered from the internal/server/api source: the
//     package doc (endpoints, stream orders, schema versioning policy)
//     and a field table for every exported wire struct, json tags
//     included.
//
// Usage:
//
//	gossipdoc            # rewrite docs/DRIVERS.md and docs/API.md
//	gossipdoc -check     # exit 1 if the committed files are stale
//
// `make docs` runs the first form; `go test ./cmd/gossipdoc` and the CI
// lint job run the equivalent of the second, so a registry or wire
// change that forgets to regenerate fails the build instead of shipping
// stale documentation.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"go/ast"
	"go/doc"
	"go/doc/comment"
	"go/parser"
	"go/printer"
	"go/token"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"

	"gossip/internal/gossip"
)

// header opens every generated file; renderers include it so -check
// catches hand edits to the marker itself.
const header = "<!-- Generated by gossipdoc. DO NOT EDIT; run `make docs` to regenerate. -->\n\n"

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("gossipdoc", flag.ContinueOnError)
	check := fs.Bool("check", false, "verify the committed docs match the generated output instead of writing")
	outDir := fs.String("out", "docs", "output directory for the generated markdown")
	apiDir := fs.String("apidir", filepath.Join("internal", "server", "api"), "directory of the wire-schema package")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	apiMD, err := renderAPI(*apiDir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "gossipdoc:", err)
		return 1
	}
	files := map[string]string{
		"DRIVERS.md": renderDrivers(),
		"API.md":     apiMD,
	}
	stale := false
	for name, want := range files {
		path := filepath.Join(*outDir, name)
		if *check {
			got, err := os.ReadFile(path)
			if err != nil || string(got) != want {
				fmt.Fprintf(os.Stderr, "gossipdoc: %s is stale; run `make docs` to regenerate\n", path)
				stale = true
			}
			continue
		}
		if err := os.MkdirAll(*outDir, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, "gossipdoc:", err)
			return 1
		}
		if err := os.WriteFile(path, []byte(want), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "gossipdoc:", err)
			return 1
		}
		fmt.Println("wrote", path)
	}
	if stale {
		return 1
	}
	return 0
}

// renderDrivers renders docs/DRIVERS.md from the live driver registry.
// Everything driver-specific comes from Register calls: nothing here
// needs touching when a protocol is added.
func renderDrivers() string {
	var b strings.Builder
	b.WriteString(header)
	b.WriteString("# Driver registry\n\n")
	b.WriteString("Every protocol in this repository is a named driver registered with\n")
	b.WriteString("`internal/gossip.Register`. The registry is the single dispatch surface:\n")
	b.WriteString("`gossipsim -algo`, `gossip.Disseminate`, the experiment harness and the\n")
	b.WriteString("gossipd `/v1` endpoints all resolve protocols through it, and\n")
	b.WriteString("`GET /v1/drivers` serves the same schema this file renders.\n\n")
	b.WriteString("Universal request keys accepted by every driver: `seed`, `max_rounds`,\n")
	b.WriteString("`workers` (the execution surface the engine itself consumes). `workers`\n")
	b.WriteString("and the `shards` envelope field never change results — simulations are\n")
	b.WriteString("bit-identical at any worker or shard count.\n\n")
	b.WriteString("**Completion semantics.** Dissemination drivers stop when their\n")
	b.WriteString("objective holds over the survivor set (nodes the fault schedule never\n")
	b.WriteString("permanently removes). The coordination drivers have their own stop\n")
	b.WriteString("conditions: `election` stops when every survivor has decided on one\n")
	b.WriteString("surviving leader and the choice has been stable for the decision window\n")
	b.WriteString("(`sim.StopLeaderStable`); `echo` stops when the root holds every\n")
	b.WriteString("survivor's acknowledgement (`sim.StopRootAcked`). A run that exhausts\n")
	b.WriteString("`max_rounds` first reports `completed=false`.\n\n")

	names := gossip.Names()
	b.WriteString("## Summary\n\n")
	b.WriteString("| driver | aliases | distributable | warm-start | real-transport | description |\n")
	b.WriteString("|---|---|---|---|---|---|\n")
	for _, name := range names {
		d, _ := gossip.Lookup(name)
		fmt.Fprintf(&b, "| [`%s`](#%s) | %s | %s | %s | %s | %s |\n",
			name, name, codeList(d.Aliases), yn(d.Distributable), yn(d.WarmStart()), yn(d.RealTransport), escapeCell(d.Description))
	}
	b.WriteString("\nA **distributable** driver can run sharded across a gossipd fleet\n")
	b.WriteString("(`shards` in the job spec); a **warm-start** driver is a single engine\n")
	b.WriteString("run that supports snapshot forking, the mechanism behind `/v1/sweeps`\n")
	b.WriteString("and `/v1/estimates`; a **real-transport** driver also runs on a live\n")
	b.WriteString("mesh (`transport: \"chan\"`, `gossipsim -mode net`, `gossipnode`).\n")

	for _, name := range names {
		d, _ := gossip.Lookup(name)
		fmt.Fprintf(&b, "\n## %s\n\n", name)
		fmt.Fprintf(&b, "%s.\n\n", strings.TrimRight(d.Description, "."))
		if len(d.Aliases) > 0 {
			fmt.Fprintf(&b, "Aliases: %s.\n\n", codeList(d.Aliases))
		}
		fmt.Fprintf(&b, "Distributable: %s. Warm-start: %s.\n\n", yn(d.Distributable), yn(d.WarmStart()))
		b.WriteString("| option | request keys | semantics |\n")
		b.WriteString("|---|---|---|\n")
		for _, o := range d.Options {
			keys := "—"
			if len(o.Keys) > 0 {
				keys = codeList(o.Keys)
			}
			fmt.Fprintf(&b, "| %s | %s | %s |\n", escapeCell(o.Name), keys, escapeCell(o.Doc))
		}
		fmt.Fprintf(&b, "\nAccepted request keys: %s.\n", codeList(d.RequestKeys()))
	}

	b.WriteString("\n## Request key vocabulary\n\n")
	b.WriteString("The closed namespace every driver's option keys are validated against\n")
	b.WriteString("at registration time (`gossip.RequestKeyVocabulary`):\n\n")
	fmt.Fprintf(&b, "%s.\n", codeList(gossip.RequestKeyVocabulary()))
	return b.String()
}

// renderAPI renders docs/API.md from the internal/server/api source: the
// package doc verbatim (it specifies the endpoints and stream orders),
// then one section per exported type in source order, structs with a
// field table carrying the json wire names.
func renderAPI(dir string) (string, error) {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, dir, nil, parser.ParseComments)
	if err != nil {
		return "", err
	}
	astPkg, ok := pkgs["api"]
	if !ok {
		return "", fmt.Errorf("package api not found in %s", dir)
	}
	docPkg := doc.New(astPkg, "gossip/internal/server/api", 0)

	var b strings.Builder
	b.WriteString(header)
	b.WriteString("# gossipd /v1 wire schema\n\n")
	b.WriteString("Rendered from the doc comments of `internal/server/api`, the one\n")
	b.WriteString("package that defines the request envelopes and NDJSON event shapes.\n\n")
	b.WriteString("## Package doc\n\n")
	b.WriteString(docMarkdown(docPkg, docPkg.Doc))

	if len(docPkg.Consts) > 0 {
		b.WriteString("\n## Constants\n")
		for _, c := range docPkg.Consts {
			b.WriteString("\n")
			if syn := oneLine(docPkg.Synopsis(c.Doc)); syn != "" {
				fmt.Fprintf(&b, "%s\n\n", syn)
			}
			for _, spec := range c.Decl.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok || len(vs.Names) == 0 {
					continue
				}
				line := "- `" + vs.Names[0].Name
				if len(vs.Values) > 0 {
					line += " = " + nodeString(fset, vs.Values[0])
				}
				line += "`"
				if note := oneLine(vs.Comment.Text()); note != "" {
					line += " — " + note
				}
				b.WriteString(line + "\n")
			}
		}
	}

	types := append([]*doc.Type(nil), docPkg.Types...)
	sort.Slice(types, func(i, j int) bool {
		return types[i].Decl.Pos() < types[j].Decl.Pos()
	})
	b.WriteString("\n## Types\n")
	for _, t := range types {
		fmt.Fprintf(&b, "\n### %s\n\n", t.Name)
		b.WriteString(docMarkdown(docPkg, t.Doc))
		st := structType(t)
		if st == nil || len(st.Fields.List) == 0 {
			continue
		}
		b.WriteString("\n| field | json | type | semantics |\n")
		b.WriteString("|---|---|---|---|\n")
		for _, f := range st.Fields.List {
			typ := nodeString(fset, f.Type)
			jsonName, opts := jsonTag(f)
			for _, name := range f.Names {
				if !ast.IsExported(name.Name) {
					continue
				}
				fmt.Fprintf(&b, "| %s | %s | `%s` | %s |\n",
					name.Name, jsonCell(jsonName, opts), escapeCell(typ), escapeCell(oneLine(f.Doc.Text())))
			}
		}
	}
	return b.String(), nil
}

// docMarkdown renders a Go doc comment as markdown, headings nested
// under the section that quotes them. Heading IDs are suppressed — the
// {#hdr-...} syntax go/doc emits renders literally on most viewers.
func docMarkdown(pkg *doc.Package, text string) string {
	if strings.TrimSpace(text) == "" {
		return ""
	}
	p := pkg.Printer()
	p.HeadingID = func(*comment.Heading) string { return "" }
	return string(p.Markdown(pkg.Parser().Parse(text)))
}

// structType unwraps a doc.Type down to its struct literal, nil for
// non-struct types.
func structType(t *doc.Type) *ast.StructType {
	for _, spec := range t.Decl.Specs {
		ts, ok := spec.(*ast.TypeSpec)
		if !ok || ts.Name.Name != t.Name {
			continue
		}
		if st, ok := ts.Type.(*ast.StructType); ok {
			return st
		}
	}
	return nil
}

// jsonTag extracts a field's json wire name and tag options.
func jsonTag(f *ast.Field) (name string, opts []string) {
	if f.Tag == nil {
		return "", nil
	}
	tag := reflect.StructTag(strings.Trim(f.Tag.Value, "`")).Get("json")
	parts := strings.Split(tag, ",")
	return parts[0], parts[1:]
}

// jsonCell renders the wire-name column: the json key, "-" for untagged
// fields, with any tag options appended.
func jsonCell(name string, opts []string) string {
	if name == "" {
		return "—"
	}
	cell := "`" + name + "`"
	if len(opts) > 0 {
		cell += " (" + strings.Join(opts, ", ") + ")"
	}
	return cell
}

// nodeString prints an AST node as source text.
func nodeString(fset *token.FileSet, n ast.Node) string {
	var buf bytes.Buffer
	if err := printer.Fprint(&buf, fset, n); err != nil {
		return "?"
	}
	return buf.String()
}

// oneLine collapses a doc comment to a single table-cell line.
func oneLine(s string) string {
	return strings.Join(strings.Fields(s), " ")
}

// escapeCell makes arbitrary doc text safe inside a markdown table cell.
func escapeCell(s string) string {
	return strings.ReplaceAll(oneLine(s), "|", "\\|")
}

// codeList renders names as a comma-separated backticked list, "—" when
// empty.
func codeList(names []string) string {
	if len(names) == 0 {
		return "—"
	}
	quoted := make([]string, len(names))
	for i, n := range names {
		quoted[i] = "`" + n + "`"
	}
	return strings.Join(quoted, ", ")
}

// yn renders a capability flag.
func yn(b bool) string {
	if b {
		return "yes"
	}
	return "no"
}
