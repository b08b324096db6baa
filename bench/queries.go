package main

import (
	"fmt"
	"math/rand"
	pathpkg "path"
	"slices"
	"sort"
	"strconv"
	"strings"
	"unicode/utf8"

	idm "repro"
	"repro/internal/experiments"
	"repro/internal/textindex"
	"repro/internal/vfs"
)

// paperFamilies maps Q1–Q8 of Table 4 to the template family each one
// is the archetype of.
var paperFamilies = [8]family{famKW, famPhrase, famAttr, famPath, famPath, famUnion, famJoin, famJoin}

// hotPool is the eight paper queries; index 0 (Q1, the largest result)
// is the one cursor walks page through.
func hotPool() []*query {
	var out []*query
	for i, q := range experiments.PaperQueries() {
		out = append(out, newQuery(q.IQL, paperFamilies[i], -1))
	}
	return out
}

// familyShare is the Table 4 mix of the cold pool.
var familyShare = [numFamilies]float64{famKW: 0.35, famPhrase: 0.15, famAttr: 0.15, famPath: 0.20, famUnion: 0.075, famJoin: 0.075}

// corpus is what the template generator knows about a generated
// dataset: enough to write queries that find something.
type corpus struct {
	folders []folderInfo
	sizes   []int64 // ascending file sizes
}

// folderInfo is one folder with text files somewhere beneath it.
type folderInfo struct {
	name  string
	exts  []string   // extensions of the text files beneath it
	docs  [][]string // token streams of those files
	below []int      // indexes of folders nested beneath this one
}

// textExts are the file types whose content the indexer tokenizes as
// plain words.
var textExts = map[string]bool{".txt": true, ".md": true, ".log": true, ".doc": true, ".tex": true}

// readCorpus walks the dataset's filesystem in path order.
func readCorpus(d *idm.Dataset) *corpus {
	c := &corpus{}
	byPath := map[string]int{}
	var paths []string
	d.FS.Walk(func(p string, n *vfs.Node) error {
		switch n.Kind() {
		case vfs.KindFolder:
			if p != "/" {
				byPath[p] = len(c.folders)
				paths = append(paths, p)
				c.folders = append(c.folders, folderInfo{name: pathpkg.Base(p)})
			}
		case vfs.KindFile:
			c.sizes = append(c.sizes, n.Size())
			ext := pathpkg.Ext(p)
			if !textExts[ext] {
				return nil
			}
			b, err := d.FS.ReadFile(p)
			if err != nil || !utf8.Valid(b) {
				return nil
			}
			toks := textindex.Tokenize(string(b))
			if len(toks) < 4 {
				return nil
			}
			for dir := pathpkg.Dir(p); dir != "/"; dir = pathpkg.Dir(dir) {
				f := &c.folders[byPath[dir]]
				f.docs = append(f.docs, toks)
				if !slices.Contains(f.exts, ext) {
					f.exts = append(f.exts, ext)
				}
			}
		}
		return nil
	})
	for i, p := range paths {
		for j, q := range paths {
			if strings.HasPrefix(q, p+"/") && len(c.folders[j].docs) > 0 {
				c.folders[i].below = append(c.folders[i].below, j)
			}
		}
	}
	// Keep only folders a query can find text under; fix up below.
	kept := map[int]int{}
	var fs []folderInfo
	for i, f := range c.folders {
		if len(f.docs) > 0 {
			kept[i] = len(fs)
			fs = append(fs, f)
		}
	}
	for i := range fs {
		for k, j := range fs[i].below {
			fs[i].below[k] = kept[j]
		}
	}
	c.folders = fs
	sort.Slice(c.sizes, func(i, j int) bool { return c.sizes[i] < c.sizes[j] })
	return c
}

// coldPool writes n distinct queries in the Table 4 family mix, every
// parameter drawn from the corpus so that nearly all of them return
// rows, then shuffles them. The same (corpus, seed) gives the same
// pool.
func coldPool(c *corpus, n int, seed int64) []*query {
	rng := rand.New(rand.NewSource(seed))
	seen := map[string]bool{}
	var out []*query
	for fam := family(0); fam < numFamilies; fam++ {
		quota := int(float64(n)*familyShare[fam] + 0.999)
		for made, tries := 0, 0; made < quota && tries < quota*50; tries++ {
			text := c.template(fam, rng)
			if text == "" || seen[text] {
				continue
			}
			seen[text] = true
			out = append(out, newQuery(text, fam, -1))
			made++
		}
	}
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

func quote(s string) string { return strconv.Quote(s) }

// template writes one query of the family.
func (c *corpus) template(fam family, rng *rand.Rand) string {
	f := &c.folders[rng.Intn(len(c.folders))]
	doc := f.docs[rng.Intn(len(f.docs))]
	word := func() string { return doc[rng.Intn(len(doc))] }
	switch fam {
	case famKW:
		// One word, or two that share a document.
		a, b := word(), word()
		if a == b || rng.Intn(8) == 0 {
			return quote(a)
		}
		if a > b {
			a, b = b, a
		}
		return quote(a) + " and " + quote(b)
	case famPhrase:
		i := rng.Intn(len(doc) - 2)
		n := 2 + rng.Intn(2)
		return quote(strings.Join(doc[i:i+n], " "))
	case famAttr:
		// A size band holding a few percent of the files, sometimes cut
		// by the dataset's 2004–2005 modification dates.
		i := rng.Intn(len(c.sizes) - 1)
		j := min(i+1+rng.Intn(1+len(c.sizes)/20), len(c.sizes)-1)
		q := fmt.Sprintf("size >= %d and size <= %d", c.sizes[i], c.sizes[j])
		if rng.Intn(2) == 0 {
			q += fmt.Sprintf(" and lastmodified < @%02d.%02d.%d", 1+rng.Intn(28), 1+rng.Intn(12), 2004+rng.Intn(2))
		}
		return "[" + q + "]"
	case famPath:
		switch rng.Intn(3) {
		case 0:
			return "//" + f.name + "//*" + f.exts[rng.Intn(len(f.exts))]
		case 1:
			return "//" + f.name + "//*[" + quote(word()) + "]"
		default:
			w := word()
			return "//" + f.name + "//*" + f.exts[rng.Intn(len(f.exts))] + "[" + quote(w) + "]"
		}
	case famUnion:
		g := &c.folders[rng.Intn(len(c.folders))]
		if g.name == f.name {
			return ""
		}
		w := word()
		return "union( //" + f.name + "//*[" + quote(w) + "], //" + g.name + "//*[" + quote(w) + "] )"
	case famJoin:
		// Files under f holding a word, joined by name with the files of
		// one type in a folder nested beneath f: the word's own file is
		// usually on both sides.
		if len(f.below) == 0 {
			return ""
		}
		g := &c.folders[f.below[rng.Intn(len(f.below))]]
		gdoc := g.docs[rng.Intn(len(g.docs))]
		w := gdoc[rng.Intn(len(gdoc))]
		return "join( //" + f.name + "//*[" + quote(w) + "] as A, //" + g.name + "//*" +
			g.exts[rng.Intn(len(g.exts))] + " as B, A.name = B.name )"
	}
	return ""
}

// syllables build the pseudo-words ingested files are made of; none is
// a word of the generated dataset, so no paper query ever matches an
// ingested file.
var syllables = []string{"zu", "qo", "xi", "vy", "ke", "wa", "jo", "pli", "gru", "sna"}

// newSource writes the n-th ingestable source of a run.
func newSource(seed int64, n int) *source {
	rng := rand.New(rand.NewSource(seed*1_000_003 + int64(n)))
	s := &source{
		id:     fmt.Sprintf("m%d", n),
		marker: fmt.Sprintf("mk%dn%d", seed, n),
		files:  make(map[string]string, filesPerSource),
	}
	for k := 0; k < filesPerSource; k++ {
		var b strings.Builder
		b.WriteString(s.marker)
		for b.Len() < fileBytes {
			b.WriteByte(' ')
			for i := 2 + rng.Intn(2); i > 0; i-- {
				b.WriteString(syllables[rng.Intn(len(syllables))])
			}
		}
		s.files[fmt.Sprintf("/inbox/%s/note-%02d.txt", s.id, k)] = b.String()
		s.bytes += b.Len()
	}
	s.body = mustJSON(map[string]any{"id": s.id, "files": s.files, "sync": true})
	return s
}
