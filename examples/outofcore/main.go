// Outofcore: the paper's actual operating regime — a dataset too large to
// hold in memory.
//
// The matrix lives in a binary file on disk; SVDD compression streams it in
// exactly two passes (Figure 5 of the paper, its U scan fused into the
// scoring scan); the compressed store is
// saved, reopened, and queried. At no point is the full N×M matrix resident
// in memory. This is the workflow the cmd/seqgen → cmd/seqcompress →
// cmd/seqquery tools package up; here it is driven through the library API.
//
//	go run ./examples/outofcore
package main

import (
	"fmt"
	"log"
	"os"
	"path/filepath"

	"seqstore"
)

func main() {
	dir, err := os.MkdirTemp("", "seqstore-outofcore")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	dataPath := filepath.Join(dir, "phone.smx")
	storePath := filepath.Join(dir, "phone.sqz")

	// 1. Write a 20,000-customer dataset to disk. (The synthetic generator
	//    materializes it once here for brevity; cmd/seqgen demonstrates the
	//    fully streaming write where no row is ever held beyond the one
	//    being written. With your own data, convert from CSV via
	//    seqstore.LoadMatrixCSV + seqstore.SaveMatrix.)
	const customers = 20000
	full := seqstore.GeneratePhone(customers)
	if err := seqstore.SaveMatrix(dataPath, full); err != nil {
		log.Fatal(err)
	}
	fi, _ := os.Stat(dataPath)
	fmt.Printf("dataset on disk: %d×366 = %.1f MB\n", customers, float64(fi.Size())/1e6)
	full = nil // drop it; from here on everything streams

	// 2. Compress by streaming the file — two passes, no full matrix in
	//    memory.
	st, err := seqstore.CompressFile(dataPath, seqstore.Options{
		Method:       seqstore.SVDD,
		Budget:       0.10,
		FlagZeroRows: true, // §6.2: inactive customers answered instantly
	})
	if err != nil {
		log.Fatal(err)
	}
	info, _ := st.SVDDInfo()
	fmt.Printf("compressed to %.2f%%: k_opt=%d, %d deltas\n",
		100*st.SpaceRatio(), info.K, info.Outliers)

	// 3. Persist and reopen (e.g. on the analyst's workstation).
	if err := st.Save(storePath); err != nil {
		log.Fatal(err)
	}
	si, _ := os.Stat(storePath)
	fmt.Printf("store on disk: %.1f MB (%.0f:1 vs raw)\n",
		float64(si.Size())/1e6, float64(fi.Size())/float64(si.Size()))

	q, err := seqstore.Open(storePath)
	if err != nil {
		log.Fatal(err)
	}

	// 4. Ad hoc queries against the reopened store.
	v, err := q.Cell(17421, 200)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("cell (17421, 200) = %.3f\n", v)

	total, err := q.Aggregate(seqstore.Sum,
		seqstore.Range(0, 5000),  // first 5,000 customers
		seqstore.Range(359, 366)) // the last week of the year
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("sum(first 5000 customers, last week) = %.1f\n", total)

}
