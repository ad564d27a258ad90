package pagedb

import (
	"encoding/binary"
	"strings"
	"testing"
)

// TestDecodeMetaRejectsObsoleteFormats feeds metadata pages of the retired
// formats 1 and 2 to the decoder: each must fail with the "obsolete format,
// rebuild" error, never panic or decode, and truncated or unknown images
// must fail as malformed.
func TestDecodeMetaRejectsObsoleteFormats(t *testing.T) {
	for _, magic := range []string{"PGDBMET1", "PGDBMET2"} {
		// A plausible old-format page: header, one tree, one free id.
		img := make([]byte, 512)
		copy(img, magic)
		binary.LittleEndian.PutUint32(img[8:], 10) // next id
		binary.LittleEndian.PutUint32(img[12:], 1) // trees
		binary.LittleEndian.PutUint32(img[16:], 1) // free ids
		off := 24
		binary.LittleEndian.PutUint16(img[off:], 1)
		img[off+2] = 't'
		binary.LittleEndian.PutUint32(img[off+3:], 1)  // root
		binary.LittleEndian.PutUint32(img[off+7:], 1)  // height
		binary.LittleEndian.PutUint64(img[off+11:], 0) // count
		binary.LittleEndian.PutUint32(img[off+19:], 5) // free id
		for _, page := range [][]byte{img, img[:8], img[:20]} {
			db := &DB{trees: make(map[string]*Tree)}
			err := db.decodeMeta(page)
			if err == nil || !strings.Contains(err.Error(), "obsolete "+magic) {
				t.Errorf("%s (%d bytes): err = %v, want the obsolete-format error", magic, len(page), err)
			}
			if len(db.trees) != 0 {
				t.Errorf("%s: decoded %d trees from an obsolete page", magic, len(db.trees))
			}
		}
	}
	for _, page := range [][]byte{nil, []byte("PGDB"), []byte("PGDBMET3-short"), make([]byte, 64)} {
		db := &DB{trees: make(map[string]*Tree)}
		if err := db.decodeMeta(page); err == nil || !strings.Contains(err.Error(), "malformed") {
			t.Errorf("%q: err = %v, want malformed", page, err)
		}
	}
}
