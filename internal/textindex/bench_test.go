package textindex

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

func benchCorpus(n int) []string {
	rng := rand.New(rand.NewSource(1))
	vocab := []string{
		"database", "tuning", "system", "index", "query", "view",
		"resource", "stream", "model", "data", "personal", "search",
	}
	docs := make([]string, n)
	for i := range docs {
		var b strings.Builder
		for w := 0; w < 120; w++ {
			b.WriteString(vocab[rng.Intn(len(vocab))])
			b.WriteByte(' ')
		}
		docs[i] = b.String()
	}
	return docs
}

func BenchmarkIndexAdd(b *testing.B) {
	docs := benchCorpus(256)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ix := New()
		for d, text := range docs {
			ix.Add(DocID(d+1), text)
		}
	}
}

func BenchmarkBuilderAdd(b *testing.B) {
	docs := benchCorpus(256)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		bld := NewBuilder()
		for d, text := range docs {
			bld.Add(DocID(d+1), text)
		}
	}
}

func BenchmarkIndexLookup(b *testing.B) {
	ix := New()
	for d, text := range benchCorpus(1024) {
		ix.Add(DocID(d+1), text)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ix.Lookup("database")
	}
}

func BenchmarkIndexPhrase(b *testing.B) {
	ix := New()
	for d, text := range benchCorpus(1024) {
		ix.Add(DocID(d+1), text)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ix.Phrase("database tuning")
	}
}

func BenchmarkIndexAnd(b *testing.B) {
	ix := New()
	for d, text := range benchCorpus(1024) {
		ix.Add(DocID(d+1), text)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ix.And("database", "tuning", "index")
	}
}

func BenchmarkTokenize(b *testing.B) {
	text := benchCorpus(1)[0]
	b.SetBytes(int64(len(text)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Tokenize(text)
	}
}

var sinkDocs []DocID

func BenchmarkIndexScaling(b *testing.B) {
	for _, n := range []int{128, 1024, 8192} {
		b.Run(fmt.Sprintf("docs-%d", n), func(b *testing.B) {
			ix := New()
			for d, text := range benchCorpus(n) {
				ix.Add(DocID(d+1), text)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sinkDocs = ix.Phrase("database tuning")
			}
		})
	}
}
