package memnode

import (
	"encoding/binary"
	"fmt"
	"sync"
	"time"
)

// tmpfs is the memory-node side of the Nova-LSM baseline's storage: files
// live in the memory node's DRAM and every access is a two-sided RPC with a
// server-side memcpy — the "long read path" the paper attributes Nova-LSM's
// slower reads to (§XI-C2).
type tmpfs struct {
	mu    sync.Mutex
	files map[uint64][]byte
}

func (s *Server) fs() *tmpfs {
	s.fsOnce.Do(func() { s.fsState = &tmpfs{files: make(map[uint64][]byte)} })
	return s.fsState
}

// FSUsed returns the bytes held by tmpfs files.
func (s *Server) FSUsed() int64 {
	fs := s.fs()
	fs.mu.Lock()
	defer fs.mu.Unlock()
	var n int64
	for _, f := range fs.files {
		n += int64(len(f))
	}
	return n
}

// handleFSWrite appends/overwrites file bytes: [id u64][off u64][data...].
func (s *Server) handleFSWrite(from int, args []byte) ([]byte, error) {
	if len(args) < 16 {
		return nil, fmt.Errorf("memnode: short fs_write")
	}
	id := binary.LittleEndian.Uint64(args)
	off := int(binary.LittleEndian.Uint64(args[8:]))
	data := args[16:]

	s.charge(time.Duration(float64(len(data)) * s.cfg.Costs.MemcpyByte))
	fs := s.fs()
	fs.mu.Lock()
	defer fs.mu.Unlock()
	f := fs.files[id]
	if need := off + len(data); need > len(f) {
		nf := make([]byte, need)
		copy(nf, f)
		f = nf
	}
	copy(f[off:], data)
	fs.files[id] = f
	return nil, nil
}

// handleFSRead returns file bytes: [id u64][off u64][n u32].
func (s *Server) handleFSRead(from int, args []byte) ([]byte, error) {
	if len(args) < 20 {
		return nil, fmt.Errorf("memnode: short fs_read")
	}
	id := binary.LittleEndian.Uint64(args)
	off := int(binary.LittleEndian.Uint64(args[8:]))
	n := int(binary.LittleEndian.Uint32(args[16:]))

	fs := s.fs()
	fs.mu.Lock()
	f, ok := fs.files[id]
	fs.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("memnode: fs_read of missing file %d", id)
	}
	if off+n > len(f) {
		return nil, fmt.Errorf("memnode: fs_read [%d,+%d) beyond file %d size %d", off, n, id, len(f))
	}
	s.charge(time.Duration(float64(n) * s.cfg.Costs.MemcpyByte))
	return f[off : off+n], nil
}

// handleFSFree deletes files (EncodeFSFrees), at most once per batch id.
func (s *Server) handleFSFree(from int, args []byte) ([]byte, error) {
	fs := s.fs()
	return s.handleFreeBatch("fs_free", args, 8, func(item []byte) error {
		id := binary.LittleEndian.Uint64(item)
		fs.mu.Lock()
		defer fs.mu.Unlock()
		if _, ok := fs.files[id]; !ok {
			return fmt.Errorf("memnode: fs_free of missing file %d", id)
		}
		delete(fs.files, id)
		return nil
	})
}
