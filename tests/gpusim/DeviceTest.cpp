//===- DeviceTest.cpp - Device memory and virtual buffer tests ----------------===//
//
// Part of the tangram-reduction project. See README.md for license details.
//
//===----------------------------------------------------------------------===//

#include "gpusim/Device.h"

#include "gpusim/SimtMachine.h"
#include "ir/Bytecode.h"
#include "native/NativeMachine.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>

using namespace tangram;
using namespace tangram::ir;
using namespace tangram::sim;

namespace {

template <typename T> bool sameBits(T A, T B) {
  return std::memcmp(&A, &B, sizeof(T)) == 0;
}

Cell floatCell(double F) {
  Cell C;
  C.F = F;
  return C;
}

Cell intCell(long long I) {
  Cell C;
  C.I = I;
  return C;
}

/// out[0] += in[tid] for every tid < n: a one-atomic sum kernel.
CompiledKernel buildSumKernel(Module &M) {
  Kernel *K = M.addKernel("sum_virtual");
  Param *Out = K->addPointerParam("out", ScalarType::F32);
  Param *In = K->addPointerParam("in", ScalarType::F32);
  Param *N = K->addScalarParam("n", ScalarType::I32);
  Local *Tid = K->addLocal("tid", ScalarType::U32);
  K->getBody().push_back(M.create<DeclLocalStmt>(
      Tid, M.arith(BinOp::Add,
                   M.arith(BinOp::Mul, M.special(SpecialReg::BlockIdxX),
                           M.special(SpecialReg::BlockDimX)),
                   M.special(SpecialReg::ThreadIdxX))));
  Local *Val = K->addLocal("val", ScalarType::F32);
  K->getBody().push_back(M.create<DeclLocalStmt>(
      Val, M.create<SelectExpr>(
               M.cmp(BinOp::LT, M.ref(Tid), M.ref(N)),
               M.create<LoadGlobalExpr>(In, M.ref(Tid)), M.constF(0.0),
               ScalarType::F32)));
  K->getBody().push_back(M.create<AtomicGlobalStmt>(
      ReduceOp::Add, AtomicScope::Device, Out, M.constI(0), M.ref(Val)));
  return compileKernel(*K);
}

/// out[0] = 1.0: a kernel that stores into its only buffer.
CompiledKernel buildStoreKernel(Module &M) {
  Kernel *K = M.addKernel("store_virtual");
  Param *Out = K->addPointerParam("out", ScalarType::F32);
  K->getBody().push_back(
      M.create<StoreGlobalStmt>(Out, M.constI(0), M.constF(1.0)));
  return compileKernel(*K);
}

TEST(Device, DenseReadWriteRoundTrip) {
  Device Dev;
  BufferId Id = Dev.alloc(ScalarType::F32, 8);
  Dev.writeFloats(Id, {1.5f, -2.0f, 0.0f});
  EXPECT_FLOAT_EQ(Dev.readFloat(Id, 0), 1.5f);
  EXPECT_FLOAT_EQ(Dev.readFloat(Id, 1), -2.0f);
  EXPECT_FLOAT_EQ(Dev.readFloat(Id, 7), 0.0f); // Untouched cells are zero.

  BufferId IntId = Dev.alloc(ScalarType::I32, 4);
  Dev.writeInts(IntId, {7, -9});
  EXPECT_EQ(Dev.readInt(IntId, 0), 7);
  EXPECT_EQ(Dev.readInt(IntId, 1), -9);
}

TEST(Device, TypedLanesRoundTripBitForBit) {
  Device Dev;
  const float Floats[] = {0.1f, -0.0f, std::numeric_limits<float>::denorm_min(),
                          std::numeric_limits<float>::max(), -3.0e38f};
  BufferId F32 = Dev.alloc(ScalarType::F32, 5);
  for (size_t I = 0; I != 5; ++I)
    Dev.get(F32).write(I, floatCell(Floats[I]));
  for (size_t I = 0; I != 5; ++I) {
    EXPECT_TRUE(sameBits(Dev.get(F32).f32Data()[I], Floats[I])) << I;
    EXPECT_TRUE(sameBits(static_cast<float>(Dev.readFloat(F32, I)),
                         Floats[I]))
        << I;
  }
  // An F32 write rounds a double to float, like every kernel store.
  Dev.get(F32).write(0, floatCell(0.1));
  EXPECT_TRUE(sameBits(Dev.readFloat(F32, 0), static_cast<double>(0.1f)));

  const double Doubles[] = {0.1, -0.0,
                            std::numeric_limits<double>::denorm_min(), 1.0e308,
                            -std::numeric_limits<double>::max()};
  BufferId F64 = Dev.alloc(ScalarType::F64, 5);
  for (size_t I = 0; I != 5; ++I)
    Dev.get(F64).write(I, floatCell(Doubles[I]));
  for (size_t I = 0; I != 5; ++I)
    EXPECT_TRUE(sameBits(Dev.readFloat(F64, I), Doubles[I])) << I;

  // Integer types store int64 lanes wrapped to the element type.
  BufferId I32 = Dev.alloc(ScalarType::I32, 2);
  Dev.get(I32).write(0, intCell((1ll << 31) + 5));
  Dev.get(I32).write(1, intCell(-7));
  EXPECT_EQ(Dev.readInt(I32, 0), std::numeric_limits<int32_t>::min() + 5);
  EXPECT_EQ(Dev.get(I32).intData()[0], std::numeric_limits<int32_t>::min() + 5);
  EXPECT_EQ(Dev.readInt(I32, 1), -7);
  BufferId I64 = Dev.alloc(ScalarType::I64, 1);
  Dev.get(I64).write(0, intCell(std::numeric_limits<long long>::min()));
  EXPECT_EQ(Dev.readInt(I64, 0), std::numeric_limits<long long>::min());

  // An F32 upload is one copy into the float plane.
  Dev.writeFloats(F32, {2.5f, -1.25f});
  EXPECT_EQ(Dev.get(F32).f32Data()[0], 2.5f);
  EXPECT_EQ(Dev.get(F32).f32Data()[1], -1.25f);
  EXPECT_EQ(Dev.get(F32).f64Data(), nullptr);
  EXPECT_EQ(Dev.get(F32).intData(), nullptr);
}

TEST(Device, OtherNumericLaneReadsMirrored) {
  Device Dev;
  BufferId F32 = Dev.alloc(ScalarType::F32, 3);
  Cell C = floatCell(2.75);
  C.I = 999; // Not stored: the float lane is authoritative.
  Dev.get(F32).write(0, C);
  Dev.get(F32).write(1, floatCell(-3.0e38));
  Dev.get(F32).write(2, floatCell(std::nan("")));
  EXPECT_EQ(Dev.readInt(F32, 0), 2);
  EXPECT_EQ(Dev.readInt(F32, 1), std::numeric_limits<long long>::min());
  EXPECT_EQ(Dev.readInt(F32, 2), 0);

  BufferId F64 = Dev.alloc(ScalarType::F64, 1);
  Dev.get(F64).write(0, floatCell(1.0e300));
  EXPECT_EQ(Dev.readInt(F64, 0), std::numeric_limits<long long>::max());

  BufferId I32 = Dev.alloc(ScalarType::I32, 1);
  C = intCell(-7);
  C.F = 123.0; // Not stored: the integer lane is authoritative.
  Dev.get(I32).write(0, C);
  EXPECT_EQ(Dev.readFloat(I32, 0), -7.0);
}

TEST(Device, IndexLaneAppearsOnlyOnceAPairIsWritten) {
  Device Dev;
  BufferId Id = Dev.alloc(ScalarType::I64, 8);
  Buffer &B = Dev.get(Id);
  EXPECT_EQ(B.indexData(), nullptr);
  EXPECT_EQ(Dev.readIndex(Id, 3), 0);
  B.write(2, intCell(5)); // Index 0: no pair yet.
  EXPECT_EQ(B.indexData(), nullptr);

  Cell Pair = intCell(5);
  Pair.Idx = 42;
  B.write(3, Pair);
  ASSERT_NE(B.indexData(), nullptr);
  EXPECT_EQ(Dev.readIndex(Id, 3), 42);
  EXPECT_EQ(Dev.readIndex(Id, 2), 0);
  EXPECT_EQ(Dev.readIndex(Id, 7), 0);
  B.write(3, intCell(6));
  EXPECT_EQ(Dev.readIndex(Id, 3), 0);
}

TEST(Device, VirtualPatternValues) {
  VirtualPattern P;
  P.Base = 2.0;
  P.Scale = 0.5;
  P.Modulus = 4;
  // value(i) = 2 + 0.5 * (i % 4)
  EXPECT_FLOAT_EQ(P.at(0).F, 2.0f);
  EXPECT_FLOAT_EQ(P.at(3).F, 3.5f);
  EXPECT_FLOAT_EQ(P.at(4).F, 2.0f); // Wraps.
  EXPECT_FLOAT_EQ(P.at(7).F, 3.5f);
}

TEST(Device, VirtualPatternSumMatchesBruteForce) {
  VirtualPattern P;
  P.Base = -1.0;
  P.Scale = 0.25;
  P.Modulus = 13;
  for (uint64_t N : {1ull, 12ull, 13ull, 14ull, 100ull, 12345ull}) {
    double Brute = 0;
    for (uint64_t I = 0; I != N; ++I)
      Brute += P.at(I).F;
    EXPECT_NEAR(P.sumFirst(N), Brute, std::abs(Brute) * 1e-9 + 1e-9)
        << "N=" << N;
  }
}

TEST(Device, VirtualBufferReadsPattern) {
  Device Dev;
  VirtualPattern P;
  P.Modulus = 5;
  BufferId Id = Dev.allocVirtual(ScalarType::F32, 1000, P);
  EXPECT_TRUE(Dev.get(Id).isVirtual());
  EXPECT_FLOAT_EQ(Dev.readFloat(Id, 7), 2.0f); // 7 % 5 = 2.
  Dev.writeFloats(Id, {9.0f, 9.0f});             // Read-only: ignored.
  EXPECT_FLOAT_EQ(Dev.readFloat(Id, 1), 1.0f);
  EXPECT_EQ(Dev.get(Id).f32Data(), nullptr); // No plane until needed.
}

TEST(Device, KernelWriteToVirtualBufferIsAnError) {
  Module M;
  CompiledKernel CK = buildStoreKernel(M);

  Device Dev;
  VirtualPattern P;
  BufferId Id = Dev.allocVirtual(ScalarType::F32, 64, P);
  SimtMachine Machine(Dev, getMaxwellGTX980());
  LaunchResult R = Machine.launch(CK, {1, 32, 0}, {ArgValue::buffer(Id)});
  ASSERT_FALSE(R.ok());
  EXPECT_NE(R.Errors.front().find("read-only"), std::string::npos);
}

TEST(Device, KernelReductionOverVirtualBufferMatchesAnalyticSum) {
  // The bench-harness contract: a kernel that sums a virtual buffer must
  // produce VirtualPattern::sumFirst (float32 rounding aside).
  Module M;
  CompiledKernel CK = buildSumKernel(M);

  const unsigned Size = 10000;
  Device Dev;
  VirtualPattern P;
  P.Base = 0.5;
  P.Scale = 0.125;
  P.Modulus = 32; // Power of two: float32-exact partial sums.
  BufferId InBuf = Dev.allocVirtual(ScalarType::F32, Size, P);
  BufferId OutBuf = Dev.alloc(ScalarType::F32, 1);
  SimtMachine Machine(Dev, getPascalP100());
  LaunchResult R = Machine.launch(
      CK, {(Size + 255) / 256, 256, 0},
      {ArgValue::buffer(OutBuf), ArgValue::buffer(InBuf),
       ArgValue::scalar(Size)});
  ASSERT_TRUE(R.ok()) << R.Errors.front();
  EXPECT_NEAR(Dev.readFloat(OutBuf, 0), P.sumFirst(Size), 1e-1);
}

TEST(Device, VirtualBufferStaysReadOnlyAfterNativeLaunchBuildsItsPlane) {
  Module M;
  CompiledKernel Sum = buildSumKernel(M);
  CompiledKernel Store = buildStoreKernel(M);
  auto NativeSum = native::lowerToNative(Sum);
  auto NativeStore = native::lowerToNative(Store);
  ASSERT_TRUE(NativeSum.ok()) << NativeSum.status().toString();
  ASSERT_TRUE(NativeStore.ok()) << NativeStore.status().toString();

  const unsigned Size = 1000;
  Device Dev;
  VirtualPattern P;
  P.Modulus = 32;
  BufferId InBuf = Dev.allocVirtual(ScalarType::F32, Size, P);
  BufferId OutBuf = Dev.alloc(ScalarType::F32, 1);
  native::NativeMachine Native(Dev);
  LaunchResult R = Native.launch(
      *NativeSum, {(Size + 255) / 256, 256, 0},
      {ArgValue::buffer(OutBuf), ArgValue::buffer(InBuf),
       ArgValue::scalar(Size)});
  ASSERT_TRUE(R.ok()) << R.Errors.front();
  EXPECT_EQ(Dev.readFloat(OutBuf, 0), P.sumFirst(Size));
  ASSERT_NE(Dev.get(InBuf).f32Data(), nullptr); // The plane now exists.

  // Both backends still refuse to write the buffer, and it still reads
  // its pattern.
  R = Native.launch(*NativeStore, {1, 32, 0}, {ArgValue::buffer(InBuf)});
  ASSERT_FALSE(R.ok());
  EXPECT_NE(R.Errors.front().find("read-only"), std::string::npos);
  SimtMachine Machine(Dev, getMaxwellGTX980());
  LaunchResult LR =
      Machine.launch(Store, {1, 32, 0}, {ArgValue::buffer(InBuf)});
  ASSERT_FALSE(LR.ok());
  EXPECT_NE(LR.Errors.front().find("read-only"), std::string::npos);
  EXPECT_EQ(Dev.get(InBuf).f32Data()[0], 0.0f);
  EXPECT_EQ(Dev.readFloat(InBuf, 0), 0.0);
  EXPECT_EQ(Dev.readFloat(InBuf, 33), 1.0);
}

} // namespace
