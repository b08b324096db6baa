// Provenance: the two §8 follow-ups of the iDM paper — versioning
// ("logically, each change creates a new version of the whole
// dataspace") and lineage ("the history of all data transformations
// that originated a given resource view") — plus ranked keyword search
// and a two-peer federation, all features the paper sketches as enabled
// by having one unified model underneath.
package main

import (
	"fmt"
	"log"
	"os"

	idm "repro"
)

func main() {
	// The dataspace is durable, so its catalog, and with it every OID,
	// survives the restart below.
	dir, err := os.MkdirTemp("", "idm-provenance-")
	if err != nil {
		log.Fatal(err)
	}
	err = run(dir)
	os.RemoveAll(dir)
	if err != nil {
		log.Fatal(err)
	}
}

func run(dir string) error {
	fs := idm.NewFileSystem()
	fs.MkdirAll("/Projects/PIM")
	fs.WriteFile("/Projects/PIM/paper.tex",
		[]byte("\\section{Introduction}\nOn dataspaces, dataspaces and more dataspaces."))
	fs.WriteFile("/Projects/PIM/notes.txt", []byte("dataspaces once"))

	cfg := idm.Config{DataDir: dir}
	sys, _, err := idm.OpenDurable(cfg)
	if err != nil {
		return err
	}
	defer sys.Close()
	if err := sys.AddFileSystem("filesystem", fs); err != nil {
		return err
	}
	if _, err := sys.Index(); err != nil {
		return err
	}

	// --- Versioning ------------------------------------------------------
	fmt.Printf("dataspace version after first index: %d\n", sys.Version())
	mark := sys.Version()

	// The user copies a file and edits another; the sync journal records
	// each change as a new dataspace version.
	fs.Copy("/Projects/PIM/paper.tex", "/Projects/PIM/paper-v2.tex")
	fs.WriteFile("/Projects/PIM/notes.txt", []byte("dataspaces, edited"))
	// (Change notifications also mark the source dirty for Refresh; a
	// full Index is the deterministic choice for an example.)
	if _, err := sys.Index(); err != nil {
		return err
	}
	fmt.Printf("after copy + edit the version is %d; changes since %d:\n", sys.Version(), mark)
	for _, c := range sys.Changes(mark) {
		fmt.Printf("  v%-3d %-8s %s\n", c.Version, c.Kind, c.URI)
	}

	// --- Lineage ---------------------------------------------------------
	// Record the copy's provenance, then ask where a section view deep
	// inside the copied file came from.
	orig, _ := sys.Query(`//paper.tex`)
	copied, _ := sys.Query(`//paper-v2.tex`)
	sys.RecordDerivation(copied.Items[0].OID, orig.Items[0].OID, "copy")

	section, err := sys.Query(`//paper-v2.tex//Introduction`)
	if err != nil || section.Count() == 0 {
		return fmt.Errorf("section query: %v (%d results)", err, section.Count())
	}
	steps, err := sys.Lineage(section.Items[0].OID)
	if err != nil {
		return err
	}
	fmt.Println("\nlineage of the Introduction section inside the copied file:")
	for _, s := range steps {
		name := s.Name
		if name == "" {
			name = "(" + s.Class + ")"
		}
		fmt.Printf("  %-12s %s\n", s.Relation, name)
	}

	// --- Ranked search ----------------------------------------------------
	res, err := sys.QueryRanked(`"dataspaces"`)
	if err != nil {
		return err
	}
	fmt.Println("\nranked results for \"dataspaces\" (by occurrence count):")
	for i, row := range res.Rows {
		fmt.Printf("  %.0f  %s\n", res.Scores[i], row[0].Path)
	}

	// --- Catalog persistence ----------------------------------------------
	// Close and reopen the data directory: recovery rebuilds the catalog
	// from the store, and re-indexing the re-added source re-associates
	// each live view with its recorded OID.
	if err := sys.Close(); err != nil {
		return err
	}
	restored, _, err := idm.OpenDurable(cfg)
	if err != nil {
		return err
	}
	defer restored.Close()
	if err := restored.AddFileSystem("filesystem", fs); err != nil {
		return err
	}
	if _, err := restored.Index(); err != nil {
		return err
	}
	again, _ := restored.Query(`//paper.tex`)
	fmt.Printf("\nOID stable across restart: %v (was %d, is %d)\n",
		orig.Items[0].OID == again.Items[0].OID, orig.Items[0].OID, again.Items[0].OID)

	// --- Federation ---------------------------------------------------------
	peerFS := idm.NewFileSystem()
	peerFS.MkdirAll("/work")
	peerFS.WriteFile("/work/report.txt", []byte("dataspaces on the desktop peer"))
	peer := idm.Open(idm.Config{})
	peer.AddFileSystem("filesystem", peerFS)
	peer.Index()

	fed := idm.NewFederation()
	fed.AddPeer("laptop", restored)
	fed.AddPeer("desktop", peer)
	fres, err := fed.Query(`"dataspaces"`)
	if err != nil {
		return err
	}
	fmt.Printf("\nfederated query across %d peers: %d rows\n", len(fed.Peers()), fres.Count())
	for _, r := range fres.Rows {
		fmt.Printf("  [%s] %s\n", r.Peer, r.Row[0].Path)
	}
	return nil
}
