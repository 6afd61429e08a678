//===- Device.h - Simulated device memory -----------------------*- C++ -*-===//
//
// Part of the tangram-reduction project. See README.md for license details.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Global-memory buffers of the simulated GPU, stored typed: the element
/// type recorded at allocation picks one plane — float for F32, double
/// for F64, int64 for the integer types — exactly the array a CUDA kernel
/// reads through its typed pointer. Both backends run over that one
/// array: the interpreter converts to and from its Cell registers in
/// Buffer::read/write, and the native backend binds raw typed pointers
/// to it, with no copy in between.
///
/// Pair reductions (ArgMin/ArgMax) also carry an int64 index per element.
/// That lane is allocated only once a (value, index) pair is written, so
/// plain buffers never pay for it; elements without one read index 0.
///
/// Buffers come in two flavors:
///  - dense: backed by host memory (the default);
///  - virtual: read-only pattern-generated contents for the paper's
///    multi-hundred-million-element benchmark sizes, where materializing
///    the array would need gigabytes. Virtual buffers have an analytic
///    reduction so benchmark results remain checkable. The interpreter
///    evaluates the pattern per read; the native backend needs an array,
///    so its first launch over the buffer builds the typed plane once.
///
//===----------------------------------------------------------------------===//

#ifndef TANGRAM_GPUSIM_DEVICE_H
#define TANGRAM_GPUSIM_DEVICE_H

#include "ir/Bytecode.h"

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <utility>
#include <vector>

namespace tangram::sim {

/// One interpreter register value, and the view of one device element the
/// interpreter reads and writes. The integer field holds I32/U32/I64 data
/// (narrow types stored widened to 64 bits, wrapped on operation); the
/// floating field holds F32/F64 data (F32 rounded on every write). Idx is
/// the index payload lane for (value, index) pair reductions; Mov/Shfl/
/// Ld/St copy whole cells, so payloads flow through every data path for
/// free and only the pair-aware opcodes touch it.
struct Cell {
  long long I = 0;
  double F = 0.0;
  long long Idx = 0;
};

using BufferId = unsigned;

/// A typed storage plane: a buffer's element array, and the native
/// backend's per-register lane arrays.
enum class Plane : unsigned char { Int, F32, F64 };

/// The plane that stores values of \p Ty.
inline Plane planeOf(ir::ScalarType Ty) {
  switch (Ty) {
  case ir::ScalarType::F32:
    return Plane::F32;
  case ir::ScalarType::F64:
    return Plane::F64;
  default:
    return Plane::Int;
  }
}

/// Allocates zero-filled buffer storage (calloc). Arrays of 2 MiB or more
/// are advised for transparent huge pages, so the first touch of a 64 MiB
/// upload takes about 32 page faults instead of 16384.
void *allocateStorage(size_t Bytes);

/// Storage comes zeroed, so elements are default-initialized in place
/// instead of being zeroed a second time. Buffer arrays are sized once and
/// never shrink, so every default-initialized element is fresh storage.
template <typename T> struct StorageAllocator {
  using value_type = T;
  StorageAllocator() = default;
  template <typename U> StorageAllocator(const StorageAllocator<U> &) {}
  T *allocate(size_t N) {
    return static_cast<T *>(allocateStorage(N * sizeof(T)));
  }
  void deallocate(T *P, size_t) { std::free(P); }
  template <typename U> void construct(U *P) {
    ::new (static_cast<void *>(P)) U;
  }
  template <typename U, typename... Args> void construct(U *P, Args &&...A) {
    ::new (static_cast<void *>(P)) U(std::forward<Args>(A)...);
  }
  friend bool operator==(const StorageAllocator &, const StorageAllocator &) {
    return true;
  }
};

/// One typed array of a buffer.
template <typename T> using Storage = std::vector<T, StorageAllocator<T>>;

/// Pattern for virtual buffers: value(i) = Base + Scale * (i % Modulus).
struct VirtualPattern {
  double Base = 0.0;
  double Scale = 1.0;
  uint64_t Modulus = 97;

  Cell at(uint64_t I) const {
    Cell C;
    double V = Base + Scale * static_cast<double>(I % Modulus);
    C.F = static_cast<float>(V);
    C.I = static_cast<long long>(V);
    return C;
  }

  /// Analytic float32 sum of the first \p N values (reference for the
  /// benchmark harness; exact in double for the patterns used).
  double sumFirst(uint64_t N) const {
    uint64_t Full = N / Modulus, Rem = N % Modulus;
    double ModSum = static_cast<double>(Modulus - 1) * Modulus / 2.0;
    double RemSum = static_cast<double>(Rem - 1) * Rem / 2.0;
    return Base * static_cast<double>(N) +
           Scale * (static_cast<double>(Full) * ModSum + RemSum);
  }
};

/// A device-resident linear buffer (dense or virtual).
class Buffer {
public:
  /// A dense, zero-filled buffer.
  Buffer(ir::ScalarType Elem, size_t Count)
      : Elem(Elem), P(planeOf(Elem)), Count(Count) {
    resizePlane();
  }
  /// A read-only buffer whose element i is Pattern.at(i).
  Buffer(ir::ScalarType Elem, size_t Count, const VirtualPattern &Pattern)
      : Elem(Elem), P(planeOf(Elem)), Count(Count), Virtual(true),
        Pattern(Pattern) {}

  Plane getPlane() const { return P; }
  size_t size() const { return Count; }
  bool isVirtual() const { return Virtual; }

  /// Element \p I as a Cell: the element type's lane as stored, the other
  /// numeric lane mirrored the way every kernel store leaves a register
  /// (saturatingIntOf of a float, the double of an integer), and the index
  /// lane, 0 where the buffer has none. Virtual buffers read the pattern.
  Cell read(size_t I) const {
    assert(I < Count && "device buffer read out of bounds");
    if (Virtual)
      return Pattern.at(I);
    Cell C;
    if (P == Plane::Int) {
      C.I = Ints[I];
      C.F = static_cast<double>(C.I);
    } else {
      C.F = P == Plane::F32 ? F32[I] : F64[I];
      C.I = ir::saturatingIntOf(C.F);
    }
    if (!Idx.empty())
      C.Idx = Idx[I];
    return C;
  }

  /// Stores element \p I from \p C: the element type's lane (an F32 value
  /// rounded to float, an integer wrapped to the element type) and the
  /// index. The first nonzero index allocates the index lane. Virtual
  /// buffers are read-only (the backends report writes to them as launch
  /// errors before calling this).
  void write(size_t I, const Cell &C) {
    assert(I < Count && "device buffer write out of bounds");
    assert(!Virtual && "write to a read-only (virtual) buffer");
    store(I, C);
    if (Idx.empty() && C.Idx != 0)
      addIndexLane();
    if (!Idx.empty())
      Idx[I] = C.Idx;
  }

  /// The typed element array of the buffer's plane (null on the other two
  /// planes, and on a virtual buffer until materialize()).
  float *f32Data() { return F32.empty() ? nullptr : F32.data(); }
  double *f64Data() { return F64.empty() ? nullptr : F64.data(); }
  long long *intData() { return Ints.empty() ? nullptr : Ints.data(); }
  /// The index lane, or null while the buffer has none.
  long long *indexData() { return Idx.empty() ? nullptr : Idx.data(); }

  /// Allocates a zeroed index lane if the buffer has none, for a native
  /// launch about to write pairs into it.
  void addIndexLane() {
    if (Idx.empty())
      Idx.resize(Count);
  }

  /// Builds a virtual buffer's typed plane from its pattern. The pattern
  /// never changes, so this runs once per buffer; a no-op on dense ones.
  void materialize() {
    if (!Virtual || Materialized)
      return;
    resizePlane();
    for (size_t I = 0; I != Count; ++I)
      store(I, Pattern.at(I));
    Materialized = true;
  }

private:
  void resizePlane() {
    if (P == Plane::F32)
      F32.resize(Count);
    else if (P == Plane::F64)
      F64.resize(Count);
    else
      Ints.resize(Count);
  }

  void store(size_t I, const Cell &C) {
    if (P == Plane::F32)
      F32[I] = static_cast<float>(C.F);
    else if (P == Plane::F64)
      F64[I] = C.F;
    else
      Ints[I] = ir::wrapToType(Elem, C.I);
  }

  ir::ScalarType Elem;
  Plane P;
  size_t Count;
  bool Virtual = false;
  bool Materialized = false;
  VirtualPattern Pattern;
  /// One of these three holds the elements; the other two stay empty.
  Storage<float> F32;
  Storage<double> F64;
  Storage<long long> Ints;
  Storage<long long> Idx;
};

/// Owns all buffers of one simulated device.
class Device {
public:
  BufferId alloc(ir::ScalarType Elem, size_t Count) {
    Buffers.emplace_back(Elem, Count);
    return static_cast<BufferId>(Buffers.size() - 1);
  }

  /// Allocates a read-only pattern-generated buffer (no host memory).
  BufferId allocVirtual(ir::ScalarType Elem, size_t Count,
                        const VirtualPattern &Pattern) {
    Buffers.emplace_back(Elem, Count, Pattern);
    return static_cast<BufferId>(Buffers.size() - 1);
  }

  Buffer &get(BufferId Id) {
    assert(Id < Buffers.size() && "invalid buffer id");
    return Buffers[Id];
  }
  const Buffer &get(BufferId Id) const {
    assert(Id < Buffers.size() && "invalid buffer id");
    return Buffers[Id];
  }

  /// Uploads 32-bit floats: one copy into an F32 buffer. Uploads into a
  /// virtual buffer are ignored, like every write to one.
  void writeFloats(BufferId Id, const std::vector<float> &Data) {
    Buffer &B = get(Id);
    assert(Data.size() <= B.size() && "upload larger than buffer");
    if (B.isVirtual())
      return;
    if (float *Dst = B.f32Data())
      std::copy(Data.begin(), Data.end(), Dst);
    else
      for (size_t I = 0; I != Data.size(); ++I)
        B.write(I, Cell{ir::saturatingIntOf(Data[I]), Data[I], 0});
  }

  /// Uploads 32-bit integers.
  void writeInts(BufferId Id, const std::vector<int> &Data) {
    Buffer &B = get(Id);
    assert(Data.size() <= B.size() && "upload larger than buffer");
    if (B.isVirtual())
      return;
    for (size_t I = 0; I != Data.size(); ++I)
      B.write(I, Cell{Data[I], static_cast<double>(Data[I]), 0});
  }

  double readFloat(BufferId Id, size_t Index) const {
    return get(Id).read(Index).F;
  }
  long long readInt(BufferId Id, size_t Index) const {
    return get(Id).read(Index).I;
  }
  /// Index payload lane (pair reductions).
  long long readIndex(BufferId Id, size_t Index) const {
    return get(Id).read(Index).Idx;
  }

  /// Allocation watermark for scoped/stack-style buffer lifetimes: buffers
  /// allocated after mark() can be dropped with release(), leaving earlier
  /// ids valid (ids are allocation indices).
  size_t mark() const { return Buffers.size(); }

  /// Drops every buffer allocated at or after \p Mark.
  void release(size_t Mark) {
    assert(Mark <= Buffers.size() && "release past allocation watermark");
    Buffers.erase(Buffers.begin() + static_cast<ptrdiff_t>(Mark),
                  Buffers.end());
  }

private:
  std::vector<Buffer> Buffers;
};

} // namespace tangram::sim

#endif // TANGRAM_GPUSIM_DEVICE_H
