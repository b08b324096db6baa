package iql

import (
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/textindex"
	"repro/internal/tupleindex"
	"repro/internal/wildcard"
)

// fakeStore is an in-memory Store for evaluator unit tests, backed by
// the real index structures.
type fakeStore struct {
	names    map[catalog.OID]string
	lower    map[catalog.OID]string // names folded once for MatchNames
	classes  map[catalog.OID]string
	children map[catalog.OID][]catalog.OID
	parents  map[catalog.OID][]catalog.OID
	content  *textindex.Index
	tuples   *tupleindex.Index
	reg      *core.Registry
	all      []catalog.OID
}

func newFakeStore() *fakeStore {
	return &fakeStore{
		names:    make(map[catalog.OID]string),
		lower:    make(map[catalog.OID]string),
		classes:  make(map[catalog.OID]string),
		children: make(map[catalog.OID][]catalog.OID),
		parents:  make(map[catalog.OID][]catalog.OID),
		content:  textindex.New(),
		tuples:   tupleindex.New(),
		reg:      core.StandardRegistry(),
	}
}

func (f *fakeStore) add(oid catalog.OID, name, class, content string, tc core.TupleComponent, parents ...catalog.OID) {
	f.names[oid] = name
	f.lower[oid] = strings.ToLower(name)
	f.classes[oid] = class
	if content != "" {
		f.content.Add(textindex.DocID(oid), content)
	}
	if !tc.IsEmpty() {
		f.tuples.Add(tupleindex.DocID(oid), tc)
	}
	for _, p := range parents {
		f.children[p] = append(f.children[p], oid)
		f.parents[oid] = append(f.parents[oid], p)
	}
	f.all = append(f.all, oid)
	sort.Slice(f.all, func(i, j int) bool { return f.all[i] < f.all[j] })
}

func (f *fakeStore) AllOIDs() []catalog.OID                 { return f.all }
func (f *fakeStore) Count() int                             { return len(f.all) }
func (f *fakeStore) NameOf(oid catalog.OID) string          { return f.names[oid] }
func (f *fakeStore) Children(oid catalog.OID) []catalog.OID { return f.children[oid] }
func (f *fakeStore) Parents(oid catalog.OID) []catalog.OID  { return f.parents[oid] }

func (f *fakeStore) Entry(oid catalog.OID) (catalog.Entry, error) {
	if _, ok := f.names[oid]; !ok {
		return catalog.Entry{}, catalog.ErrNotFound
	}
	return catalog.Entry{OID: oid, Name: f.names[oid], Class: f.classes[oid]}, nil
}

func (f *fakeStore) MatchNames(pattern string) []catalog.OID {
	var out []catalog.OID
	lp := strings.ToLower(pattern)
	for _, oid := range f.all {
		if wildcard.MatchLowered(lp, f.lower[oid]) {
			out = append(out, oid)
		}
	}
	return out
}

func (f *fakeStore) ContentPhrase(phrase string) []catalog.OID {
	ids := f.content.Phrase(phrase)
	out := make([]catalog.OID, len(ids))
	for i, id := range ids {
		out[i] = catalog.OID(id)
	}
	return out
}

func (f *fakeStore) ContentPhraseFreqs(phrase string) map[catalog.OID]int {
	hits := f.content.PhraseHits(phrase)
	out := make(map[catalog.OID]int, len(hits))
	for _, h := range hits {
		out[catalog.OID(h.Doc)] = h.Freq
	}
	return out
}

func (f *fakeStore) TupleQuery(attr string, op tupleindex.Op, value core.Value) []catalog.OID {
	ids := f.tuples.Query(attr, op, value)
	out := make([]catalog.OID, len(ids))
	for i, id := range ids {
		out[i] = catalog.OID(id)
	}
	return out
}

func (f *fakeStore) Tuple(oid catalog.OID) (core.TupleComponent, bool) {
	return f.tuples.Tuple(tupleindex.DocID(oid))
}

func (f *fakeStore) OIDsInClass(class string) []catalog.OID {
	var out []catalog.OID
	for _, oid := range f.all {
		if c := f.classes[oid]; c != "" && f.reg.IsA(c, class) {
			out = append(out, oid)
		}
	}
	return out
}

// fakeStore's statistics are computed fresh (the store is tiny),
// matching the contracts rvm implements.
var _ Store = (*fakeStore)(nil)

func (f *fakeStore) EstimatePhrase(phrase string) int {
	return f.content.PhraseCardUpper(phrase)
}

func (f *fakeStore) EstimateClass(class string) int {
	return len(f.OIDsInClass(class))
}

func (f *fakeStore) EstimateNamePattern(pattern string) (int, bool) {
	if strings.ContainsAny(pattern, "*?") {
		return 0, false
	}
	n := 0
	for _, name := range f.names {
		if strings.EqualFold(name, pattern) {
			n++
		}
	}
	return n, true
}

func (f *fakeStore) EstimateTuple(attr string, op tupleindex.Op, value core.Value) int {
	return f.tuples.CardEstimate(attr, op, value)
}

func (f *fakeStore) EstimateReach(oids []catalog.OID) int {
	seen := make(map[catalog.OID]bool)
	frontier := append([]catalog.OID(nil), oids...)
	reach := 0
	for len(frontier) > 0 {
		var next []catalog.OID
		for _, oid := range frontier {
			for _, ch := range f.children[oid] {
				if !seen[ch] {
					seen[ch] = true
					reach++
					next = append(next, ch)
				}
			}
		}
		frontier = next
	}
	return reach
}

// paperStore builds a dataspace mirroring the paper's examples:
//
//	1 root
//	├── 2 papers (folder)
//	│    └── 3 VLDB2006 (folder)
//	│         └── 4 vldb.tex (latexfile, size 50000)
//	│              ├── 5 document
//	│              │    ├── 6 Introduction (latex_section, "... Mike Franklin ... dataspaces Vision ...")
//	│              │    │    └── 7 ref (texref, name fig:index) ──→ 9
//	│              │    └── 8 GrandVision (latex_section, "Franklin agrees")
//	│              └── 9 figure (class figure, label fig:index, "Indexing time plot")
//	└── 10 PIM (folder)
//	     └── 11 Introduction (latex_section, "PIM intro, Mike Franklin et al", size attr absent)
func paperStore() *fakeStore {
	f := newFakeStore()
	fsT := func(size int64, day int) core.TupleComponent {
		return core.TupleComponent{
			Schema: core.FSSchema,
			Tuple: core.Tuple{core.Int(size),
				core.Time(time.Date(2005, 1, 1, 0, 0, 0, 0, time.UTC)),
				core.Time(time.Date(2005, 6, day, 0, 0, 0, 0, time.UTC))},
		}
	}
	labelT := func(label string) core.TupleComponent {
		return core.TupleComponent{
			Schema: core.Schema{{Name: "label", Domain: core.DomainString}},
			Tuple:  core.Tuple{core.String(label)},
		}
	}
	f.add(1, "root", core.ClassFolder, "", fsT(4096, 1))
	f.add(2, "papers", core.ClassFolder, "", fsT(4096, 1), 1)
	f.add(3, "VLDB2006", core.ClassFolder, "", fsT(4096, 2), 2)
	f.add(4, "vldb.tex", core.ClassLatexFile, "raw tex", fsT(50000, 10), 3)
	f.add(5, "document", core.ClassLatexDocument, "", core.EmptyTuple(), 4)
	f.add(6, "Introduction", core.ClassLatexSection,
		"This section thanks Mike Franklin for the dataspaces Vision", core.EmptyTuple(), 5)
	f.add(7, "fig:index", core.ClassTexRef, "", core.EmptyTuple(), 6)
	f.add(8, "GrandVision", core.ClassLatexSection, "Franklin agrees with systems", core.EmptyTuple(), 5)
	f.add(9, "figure", core.ClassFigure, "Indexing time plot", labelT("fig:index"), 4)
	f.children[7] = append(f.children[7], 9) // texref cross edge
	f.parents[9] = append(f.parents[9], 7)
	f.add(10, "PIM", core.ClassFolder, "", fsT(4096, 3), 1)
	f.add(11, "Introduction", core.ClassLatexSection,
		"PIM intro, thanks to Mike Franklin et al", core.EmptyTuple(), 10)
	return f
}

func engines(f *fakeStore) map[string]*Engine {
	return map[string]*Engine{
		"forward":  NewEngine(f, Options{Expansion: ForwardExpansion, Now: fixedNow}),
		"backward": NewEngine(f, Options{Expansion: BackwardExpansion, Now: fixedNow}),
		"auto":     NewEngine(f, Options{Expansion: AutoExpansion, Now: fixedNow}),
	}
}

// runAll runs the query under every expansion strategy and checks they
// agree, returning the forward result.
func runAll(t *testing.T, f *fakeStore, src string) *Result {
	t.Helper()
	var ref *Result
	for name, e := range engines(f) {
		r, err := e.Query(src)
		if err != nil {
			t.Fatalf("%s: Query(%q): %v", name, src, err)
		}
		if ref == nil {
			ref = r
			continue
		}
		a, b := ref.OIDs(), r.OIDs()
		if len(a) != len(b) {
			t.Fatalf("%s disagrees on %q: %v vs %v", name, src, a, b)
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%s disagrees on %q: %v vs %v", name, src, a, b)
			}
		}
	}
	return ref
}

func oidsOf(r *Result) []catalog.OID { return r.OIDs() }

func TestKeywordQuery(t *testing.T) {
	f := paperStore()
	r := runAll(t, f, `"Mike Franklin"`)
	want := []catalog.OID{6, 11}
	got := oidsOf(r)
	if len(got) != 2 || got[0] != want[0] || got[1] != want[1] {
		t.Errorf("result = %v, want %v", got, want)
	}
}

func TestKeywordConjunction(t *testing.T) {
	f := paperStore()
	r := runAll(t, f, `"Franklin" and "dataspaces"`)
	if got := oidsOf(r); len(got) != 1 || got[0] != 6 {
		t.Errorf("result = %v", got)
	}
}

func TestKeywordDisjunctionAndNot(t *testing.T) {
	f := paperStore()
	r := runAll(t, f, `"dataspaces" or "systems"`)
	if got := oidsOf(r); len(got) != 2 {
		t.Errorf("or result = %v", got)
	}
	r = runAll(t, f, `"Franklin" and not "dataspaces"`)
	if got := oidsOf(r); len(got) != 2 { // 8 and 11
		t.Errorf("not result = %v", got)
	}
}

func TestAttributePredicate(t *testing.T) {
	f := paperStore()
	r := runAll(t, f, `[size > 42000 and lastmodified < @12.06.2005]`)
	if got := oidsOf(r); len(got) != 1 || got[0] != 4 {
		t.Errorf("result = %v, want [4]", got)
	}
}

func TestPathDescendantWithClassAndPhrase(t *testing.T) {
	f := paperStore()
	// Query 1 of the paper.
	r := runAll(t, f, `//PIM//Introduction[class="latex_section" and "Mike Franklin"]`)
	if got := oidsOf(r); len(got) != 1 || got[0] != 11 {
		t.Errorf("result = %v, want [11]", got)
	}
}

func TestPathWildcardSteps(t *testing.T) {
	f := paperStore()
	// Q4-like: //papers//*Vision/* — children of sections ending in Vision.
	r := runAll(t, f, `//papers//*Vision["Franklin"]`)
	if got := oidsOf(r); len(got) != 1 || got[0] != 8 {
		t.Errorf("result = %v, want [8]", got)
	}
}

func TestPathChildAxis(t *testing.T) {
	f := paperStore()
	// Direct children only: //vldb.tex/* yields document and figure.
	r := runAll(t, f, `//vldb.tex/*`)
	if got := oidsOf(r); len(got) != 2 || got[0] != 5 || got[1] != 9 {
		t.Errorf("result = %v, want [5 9]", got)
	}
	// Introduction is NOT a direct child of vldb.tex.
	r = runAll(t, f, `//vldb.tex/Introduction`)
	if got := oidsOf(r); len(got) != 0 {
		t.Errorf("child axis leaked descendants: %v", got)
	}
}

func TestPathThroughCrossEdge(t *testing.T) {
	f := paperStore()
	// The figure is a descendant of the Introduction *only* through the
	// texref cross edge.
	r := runAll(t, f, `//Introduction//[class="figure"]`)
	if got := oidsOf(r); len(got) != 1 || got[0] != 9 {
		t.Errorf("result = %v, want [9]", got)
	}
}

func TestClassSpecializationMatching(t *testing.T) {
	f := paperStore()
	// figure is-a environment, so class="environment" must match it.
	r := runAll(t, f, `//[class="environment"]`)
	if got := oidsOf(r); len(got) != 1 || got[0] != 9 {
		t.Errorf("result = %v, want [9]", got)
	}
	// latexfile is-a file.
	r = runAll(t, f, `//[class="file"]`)
	if got := oidsOf(r); len(got) != 1 || got[0] != 4 {
		t.Errorf("file result = %v, want [4]", got)
	}
}

func TestUnionQueryEval(t *testing.T) {
	f := paperStore()
	r := runAll(t, f, `union( //PIM//*["Franklin"], //papers//*["Franklin"] )`)
	if got := oidsOf(r); len(got) != 3 { // 6, 8, 11
		t.Errorf("union = %v", got)
	}
	// Overlapping operands deduplicate.
	r = runAll(t, f, `union( //*["Franklin"], //*["Franklin"] )`)
	if got := oidsOf(r); len(got) != 3 {
		t.Errorf("dedup union = %v", got)
	}
}

func TestJoinQueryEval(t *testing.T) {
	f := paperStore()
	// Q7-like: texrefs joined to figures on name = tuple.label.
	r := runAll(t, f, `join( //[class="texref"] as A, //[class="figure"] as B, A.name = B.tuple.label )`)
	if r.Count() != 1 {
		t.Fatalf("join rows = %d", r.Count())
	}
	eng := NewEngine(f, Options{Now: fixedNow})
	res, err := eng.Query(`join( //[class="texref"] as A, //[class="figure"] as B, A.name = B.tuple.label )`)
	if err != nil {
		t.Fatal(err)
	}
	row := res.Rows[0]
	if len(row) != 2 || row[0] != 7 || row[1] != 9 {
		t.Errorf("join row = %v, want [7 9]", row)
	}
	if len(res.Columns) != 2 || res.Columns[0] != "A" || res.Columns[1] != "B" {
		t.Errorf("columns = %v", res.Columns)
	}
}

func TestJoinOnNameEquality(t *testing.T) {
	f := paperStore()
	// Two "Introduction" sections join on name.
	r := runAll(t, f, `join( //PIM//* as A, //papers//* as B, A.name = B.name )`)
	if r.Count() != 1 {
		t.Errorf("rows = %d", r.Count())
	}
}

func TestPlanUsesIndexes(t *testing.T) {
	f := paperStore()
	e := NewEngine(f, Options{Expansion: ForwardExpansion, Now: fixedNow})
	r, err := e.Query(`//PIM//Introduction[class="latex_section" and "Mike Franklin"]`)
	if err != nil {
		t.Fatal(err)
	}
	if r.Plan.IndexAccesses == 0 {
		t.Error("plan used no indexes")
	}
	if r.Plan.String() == "" {
		t.Error("plan has no notes")
	}
}

func TestForwardExpansionCountsIntermediates(t *testing.T) {
	f := paperStore()
	fwd := NewEngine(f, Options{Expansion: ForwardExpansion, Now: fixedNow})
	bwd := NewEngine(f, Options{Expansion: BackwardExpansion, Now: fixedNow})
	// Anchored on a broad first step, forward expansion touches many
	// intermediates; backward anchors on the selective last step.
	src := `//root//[class="figure"]`
	rf, err := fwd.Query(src)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := bwd.Query(src)
	if err != nil {
		t.Fatal(err)
	}
	if rf.Count() != 1 || rb.Count() != 1 {
		t.Fatalf("counts: fwd=%d bwd=%d", rf.Count(), rb.Count())
	}
	if rf.Plan.Intermediates <= rb.Plan.Intermediates {
		t.Errorf("fwd intermediates %d should exceed bwd %d",
			rf.Plan.Intermediates, rb.Plan.Intermediates)
	}
}

func TestAutoExpansionPicksCheaperAnchor(t *testing.T) {
	f := paperStore()
	auto := NewEngine(f, Options{Expansion: AutoExpansion, Now: fixedNow})
	r, err := auto.Query(`//root//[class="figure"]`)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, n := range r.Plan.Notes {
		if n == "auto expansion: first=1 last=1 → backward" {
			found = true
		}
	}
	if !found {
		t.Logf("plan notes: %v", r.Plan.Notes)
	}
	if r.Count() != 1 {
		t.Errorf("count = %d", r.Count())
	}
}

func TestBudgetExceeded(t *testing.T) {
	f := paperStore()
	e := NewEngine(f, Options{Expansion: ForwardExpansion, Budget: 2, Now: fixedNow})
	if _, err := e.Query(`//root//Introduction`); err == nil {
		t.Error("budget of 2 not enforced")
	}
}

func TestQuerySyntaxErrorPropagates(t *testing.T) {
	f := paperStore()
	e := NewEngine(f, Options{Now: fixedNow})
	if _, err := e.Query(`//a[`); err == nil {
		t.Error("syntax error swallowed")
	}
}

func TestEmptyResult(t *testing.T) {
	f := paperStore()
	r := runAll(t, f, `"no such phrase anywhere"`)
	if r.Count() != 0 {
		t.Errorf("count = %d", r.Count())
	}
}

func TestRankedKeywordQuery(t *testing.T) {
	f := newFakeStore()
	f.add(1, "once", "", "Franklin appears here", core.EmptyTuple())
	f.add(2, "thrice", "", "Franklin and Franklin and Franklin", core.EmptyTuple())
	f.add(3, "twice", "", "Franklin, then Franklin again", core.EmptyTuple())
	e := NewEngine(f, Options{Rank: true, Now: fixedNow})
	r, err := e.Query(`"Franklin"`)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Scores) != 3 {
		t.Fatalf("scores = %v", r.Scores)
	}
	wantOrder := []catalog.OID{2, 3, 1}
	wantScores := []float64{3, 2, 1}
	for i, row := range r.Rows {
		if row[0] != wantOrder[i] || r.Scores[i] != wantScores[i] {
			t.Errorf("rank %d: oid=%d score=%v, want oid=%d score=%v",
				i, row[0], r.Scores[i], wantOrder[i], wantScores[i])
		}
	}
}

func TestRankedIgnoresNegatedPhrases(t *testing.T) {
	f := newFakeStore()
	f.add(1, "a", "", "keep keep keep drop", core.EmptyTuple())
	f.add(2, "b", "", "keep", core.EmptyTuple())
	e := NewEngine(f, Options{Rank: true, Now: fixedNow})
	r, err := e.Query(`"keep" and not "nothere"`)
	if err != nil {
		t.Fatal(err)
	}
	if r.Rows[0][0] != 1 || r.Scores[0] != 3 {
		t.Errorf("top = oid %d score %v", r.Rows[0][0], r.Scores[0])
	}
}

func TestRankedNoPhrasesKeepsOrder(t *testing.T) {
	f := paperStore()
	e := NewEngine(f, Options{Rank: true, Now: fixedNow})
	r, err := e.Query(`[size > 0]`)
	if err != nil {
		t.Fatal(err)
	}
	if r.Scores == nil || len(r.Scores) != len(r.Rows) {
		t.Fatalf("scores = %v", r.Scores)
	}
	for i := 1; i < len(r.Rows); i++ {
		if r.Rows[i-1][0] >= r.Rows[i][0] {
			t.Error("phrase-less ranked result not OID-ordered")
		}
	}
}

func TestNamePseudoAttribute(t *testing.T) {
	f := paperStore()
	// [name = "..."] matches the η component with wildcard semantics.
	r := runAll(t, f, `[name = "Introduction"]`)
	if got := oidsOf(r); len(got) != 2 { // both Introduction sections
		t.Errorf("name = Introduction: %v", got)
	}
	r = runAll(t, f, `[name = "*.tex"]`)
	if got := oidsOf(r); len(got) != 1 || got[0] != 4 {
		t.Errorf("name = *.tex: %v", got)
	}
	r = runAll(t, f, `//papers//[name = "?onclusion*" or name = "*Vision"]`)
	if got := oidsOf(r); len(got) != 1 || got[0] != 8 {
		t.Errorf("disjunctive name predicate: %v", got)
	}
	// NE excludes matching names.
	r = runAll(t, f, `//vldb.tex/*[name != "figure"]`)
	if got := oidsOf(r); len(got) != 1 || got[0] != 5 {
		t.Errorf("name != figure: %v", got)
	}
}

func TestNamePredicateUsesNameIndex(t *testing.T) {
	f := paperStore()
	e := NewEngine(f, Options{Now: fixedNow})
	r, err := e.Query(`[name = "figure"]`)
	if err != nil {
		t.Fatal(err)
	}
	usedNameIndex := false
	for _, n := range r.Plan.Notes {
		if strings.Contains(n, "name predicate") {
			usedNameIndex = true
		}
	}
	if !usedNameIndex {
		t.Errorf("planner skipped the name replica: %v", r.Plan.Notes)
	}
}

func TestUnrankedHasNilScores(t *testing.T) {
	f := paperStore()
	e := NewEngine(f, Options{Now: fixedNow})
	r, err := e.Query(`"Franklin"`)
	if err != nil {
		t.Fatal(err)
	}
	if r.Scores != nil {
		t.Errorf("scores = %v, want nil", r.Scores)
	}
}
