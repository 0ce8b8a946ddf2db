package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"repro/internal/store"
)

// storeReplay times the store layer on copies of real store
// directories: store.Open (which replays every segment), a Get of
// every record, and a Put of every payload into a scratch store.
func storeReplay(dirs []string, tmp string, tr *tracer) (map[string]float64, error) {
	var opens, gets, puts []float64
	var bytes, openNS float64
	type rec struct {
		id      string
		payload []byte
	}
	var recs []rec
	for i, dir := range dirs {
		cp := filepath.Join(tmp, fmt.Sprintf("replay-%d", i))
		n, err := copyDir(dir, cp)
		if err != nil {
			return nil, err
		}
		bytes += float64(n)
		t := time.Now()
		sp := tr.begin("store.Open", cp, -1)
		st, err := store.Open(cp, store.Options{})
		tr.end(sp)
		if err != nil {
			return nil, err
		}
		d := time.Since(t)
		openNS += float64(d)
		opens = append(opens, float64(d)/1e6)
		for _, id := range st.IDs() {
			t := time.Now()
			sp := tr.begin("store.Get", id, -1)
			b, ok, err := st.Get(id)
			tr.end(sp)
			if err != nil || !ok {
				st.Close()
				return nil, fmt.Errorf("store replay: get %s: ok=%v err=%v", id, ok, err)
			}
			gets = append(gets, float64(time.Since(t))/1e3)
			recs = append(recs, rec{id, b})
		}
		if err := st.Close(); err != nil {
			return nil, err
		}
	}
	scratch := filepath.Join(tmp, "replay-put")
	st, err := store.Open(scratch, store.Options{})
	if err != nil {
		return nil, err
	}
	for _, r := range recs {
		t := time.Now()
		sp := tr.begin("store.Put", r.id, -1)
		err := st.Put(r.id, r.payload)
		tr.end(sp)
		if err != nil {
			st.Close()
			return nil, err
		}
		puts = append(puts, float64(time.Since(t))/1e3)
	}
	if err := st.Close(); err != nil {
		return nil, err
	}
	return map[string]float64{
		"store.open_ms":         median(opens),
		"store.replay_mb_per_s": ratio(bytes/(1<<20), openNS/1e9),
		"store.get_us":          median(gets),
		"store.put_us":          median(puts),
		"store.mb":              bytes / (1 << 20),
	}, nil
}

// copyDir copies the regular files of src (recursively) into a fresh
// dst and returns the bytes copied.
func copyDir(src, dst string) (int64, error) {
	if err := os.RemoveAll(dst); err != nil {
		return 0, err
	}
	var total int64
	err := filepath.WalkDir(src, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(src, path)
		target := filepath.Join(dst, rel)
		if d.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		n, err := copyFile(path, target)
		total += n
		return err
	})
	return total, err
}

func copyFile(src, dst string) (int64, error) {
	in, err := os.Open(src)
	if err != nil {
		return 0, err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return 0, err
	}
	n, err := io.Copy(out, in)
	if cerr := out.Close(); err == nil {
		err = cerr
	}
	return n, err
}
