#include "src/kernels/kernel_sources.h"

#include <string_view>

#include "src/common/check.h"

namespace neuroc {

namespace {

// Descriptor field byte offsets (see DescWord in src/core/model_image.h).
constexpr int kOffInDim = kDescInDim * 4;
constexpr int kOffOutDim = kDescOutDim * 4;
constexpr int kOffFlags = kDescFlags * 4;
constexpr int kOffPosMeta = kDescPosMetaAddr * 4;
constexpr int kOffPosIdx = kDescPosIdxAddr * 4;
constexpr int kOffNegMeta = kDescNegMetaAddr * 4;
constexpr int kOffNegIdx = kDescNegIdxAddr * 4;
constexpr int kOffScale = kDescScaleAddr * 4;
constexpr int kOffBias = kDescBiasAddr * 4;
constexpr int kOffShift = kDescShift * 4;
constexpr int kOffBlockSize = kDescBlockSize * 4;
constexpr int kOffNumBlocks = kDescNumBlocks * 4;
constexpr int kOffWeights = kDescWeightsAddr * 4;
constexpr int kOffInput = kDescInputAddr * 4;
constexpr int kOffOutput = kDescOutputAddr * 4;
constexpr int kOffScratch = kDescScratchAddr * 4;

// Stack-frame slot offsets shared by the Neuro-C kernels.
constexpr int kSlotX = 0;
constexpr int kSlotColsLeft = 4;
constexpr int kSlotShift = 8;
constexpr int kSlotRnd = 12;
constexpr int kSlotRelu = 16;
constexpr int kSlotBias = 20;
constexpr int kSlotScale = 24;
constexpr int kSlotPosMeta = 28;
constexpr int kSlotPosIdx = 32;
constexpr int kSlotNegMeta = 36;
constexpr int kSlotNegIdx = 40;
// Extra slots used only by the block kernel.
constexpr int kSlotBlocksLeft = 44;
constexpr int kSlotBlockSize = 48;
constexpr int kSlotScratch = 52;
constexpr int kSlotOutDim = 56;
constexpr int kSlotOutput = 60;

// Small assembly text builder with per-function label generation.
class AsmWriter {
 public:
  explicit AsmWriter(std::string prefix) : prefix_(std::move(prefix)) {}

  void L(const std::string& line) { text_ += "    " + line + "\n"; }
  void Label(const std::string& name) { text_ += name + ":\n"; }
  void Comment(const std::string& c) { text_ += "    @ " + c + "\n"; }

  std::string NewLabel(const std::string& tag) {
    return prefix_ + "_" + tag + std::to_string(counter_++);
  }

  const std::string& text() const { return text_; }

 private:
  std::string prefix_;
  std::string text_;
  int counter_ = 0;
};

std::string Imm(int v) {
  std::string s = "#";
  s += std::to_string(v);
  return s;
}

// Emits `ldrb/ldrh rd, [rn, #0]` according to the element width.
void LoadElem(AsmWriter& w, const char* rd, const char* rn, int width) {
  if (width == 1) {
    w.L(std::string("ldrb ") + rd + ", [" + rn + ", #0]");
  } else {
    w.L(std::string("ldrh ") + rd + ", [" + rn + ", #0]");
  }
}

// Branch-free requantization of the accumulator in r3: rounding shift, saturation to int8
// and ReLU with no data-dependent control flow, preserving the paper's fixed-latency
// property (the only branch keys on the per-layer relu flag, identical for every neuron).
// Clobbers r4 plus the two scratch registers t1/t2.
void EmitRequantCore(AsmWriter& w, const char* t1, const char* t2) {
  const std::string t1s(t1);
  const std::string t2s(t2);
  w.Comment("rounding right shift");
  w.L("ldr r4, [sp, " + Imm(kSlotRnd) + "]");
  w.L("adds r3, r3, r4");
  w.L("ldr r4, [sp, " + Imm(kSlotShift) + "]");
  w.L("asrs r3, r4");
  w.Comment("branchless clamp to [-128, 127]");
  w.L("movs r4, #127");
  w.L("subs " + t1s + ", r3, r4");
  w.L("asrs " + t2s + ", " + t1s + ", #31");
  w.L("bics " + t1s + ", " + t2s);
  w.L("subs r3, r3, " + t1s);
  w.L("movs " + t1s + ", r3");
  w.L("adds " + t1s + ", #128");
  w.L("asrs " + t2s + ", " + t1s + ", #31");
  w.L("ands " + t1s + ", " + t2s);
  w.L("subs r3, r3, " + t1s);
  w.Comment("relu (branch keys on a per-layer constant, not on data)");
  const std::string no_relu = w.NewLabel("relu");
  w.L("ldr r4, [sp, " + Imm(kSlotRelu) + "]");
  w.L("cmp r4, #0");
  w.L("beq " + no_relu);
  w.L("asrs r4, r3, #31");
  w.L("bics r3, r4");
  w.Label(no_relu);
  w.L("strb r3, [r7, #0]");
  w.L("adds r7, r7, #1");
}

// Full epilogue for the Neuro-C kernels: per-neuron scale multiply, bias add, then the
// branch-free requantization core. Clobbers r4, r5, r6.
void EmitRequantEpilogue(AsmWriter& w, bool has_scale) {
  if (has_scale) {
    w.Comment("acc *= scale[j] (per-neuron multiply, q7)");
    w.L("ldr r4, [sp, " + Imm(kSlotScale) + "]");
    w.L("ldrb r5, [r4, #0]");
    w.L("sxtb r5, r5");
    w.L("adds r4, r4, #1");
    w.L("str r4, [sp, " + Imm(kSlotScale) + "]");
    w.L("muls r3, r5, r3");
  }
  w.Comment("acc += bias[j]");
  w.L("ldr r4, [sp, " + Imm(kSlotBias) + "]");
  w.L("ldr r5, [r4, #0]");
  w.L("adds r4, r4, #4");
  w.L("str r4, [sp, " + Imm(kSlotBias) + "]");
  w.L("adds r3, r3, r5");
  EmitRequantCore(w, "r5", "r6");
}

// Caches descriptor fields into the stack frame: shift, rnd, relu, bias (+scale).
void EmitCommonPrologueFields(AsmWriter& w, bool has_scale) {
  w.L("ldr r1, [r0, " + Imm(kOffShift) + "]");
  w.L("str r1, [sp, " + Imm(kSlotShift) + "]");
  w.Comment("rnd = shift ? 1 << (shift-1) : 0");
  const std::string rnd_done = w.NewLabel("rnd");
  w.L("movs r2, #0");
  w.L("cmp r1, #0");
  w.L("beq " + rnd_done);
  w.L("movs r2, #1");
  w.L("subs r1, r1, #1");
  w.L("lsls r2, r1");
  w.Label(rnd_done);
  w.L("str r2, [sp, " + Imm(kSlotRnd) + "]");
  w.L("ldr r1, [r0, " + Imm(kOffFlags) + "]");
  w.L("lsrs r1, r1, #16");
  w.L("movs r2, #1");
  w.L("ands r1, r2");
  w.L("str r1, [sp, " + Imm(kSlotRelu) + "]");
  w.L("ldr r1, [r0, " + Imm(kOffBias) + "]");
  w.L("str r1, [sp, " + Imm(kSlotBias) + "]");
  if (has_scale) {
    w.L("ldr r1, [r0, " + Imm(kOffScale) + "]");
    w.L("str r1, [sp, " + Imm(kSlotScale) + "]");
  }
}

// Decrements the counter in `slot` and loops back to `label` while nonzero. Uses the
// inverted-condition + unconditional-branch pattern because large kernel bodies exceed the
// ±256-byte range of Thumb conditional branches.
void EmitCountedLoopBack(AsmWriter& w, int slot, const std::string& label) {
  const std::string exit_label = w.NewLabel("exit");
  w.L("ldr r4, [sp, " + Imm(slot) + "]");
  w.L("subs r4, r4, #1");
  w.L("str r4, [sp, " + Imm(slot) + "]");
  w.L("beq " + exit_label);
  w.L("b " + label);
  w.Label(exit_label);
}

enum class Sign { kAdd, kSub };

const char* AccOp(Sign s) { return s == Sign::kAdd ? "adds r3, r3, " : "subs r3, r3, "; }

// CSC polarity pass: pointer array gives [start, end) element positions into the absolute
// index array; traversal is k-indexed as in the natural C implementation.
void EmitCscPass(AsmWriter& w, Sign sign, int slot_meta, int slot_idx, int mw, int iw) {
  const std::string done = w.NewLabel("cscdone");
  const std::string loop = w.NewLabel("cscloop");
  w.Comment(sign == Sign::kAdd ? "CSC positive pass" : "CSC negative pass");
  w.L("ldr r4, [sp, " + Imm(slot_meta) + "]");
  if (mw == 1) {
    w.L("ldrb r2, [r4, #0]");
    w.L("ldrb r6, [r4, #1]");
  } else {
    w.L("ldrh r2, [r4, #0]");
    w.L("ldrh r6, [r4, #2]");
  }
  w.L("adds r4, r4, " + Imm(mw));
  w.L("str r4, [sp, " + Imm(slot_meta) + "]");
  w.L("subs r6, r6, r2");
  w.L("beq " + done);
  w.L("ldr r5, [sp, " + Imm(slot_idx) + "]");
  w.L("ldr r1, [sp, " + Imm(kSlotX) + "]");
  w.Label(loop);
  if (iw == 1) {
    w.L("ldrb r4, [r5, r2]");
  } else {
    w.L("lsls r4, r2, #1");
    w.L("ldrh r4, [r5, r4]");
  }
  w.L("ldrsb r0, [r1, r4]");
  w.L(std::string(AccOp(sign)) + "r0");
  w.L("adds r2, r2, #1");
  w.L("subs r6, r6, #1");
  w.L("bne " + loop);
  w.Label(done);
}

// Mixed polarity pass: per-column count plus a running pointer over absolute indices.
void EmitMixedPass(AsmWriter& w, Sign sign, int slot_meta, int slot_idx, int mw, int iw) {
  const std::string done = w.NewLabel("mixdone");
  const std::string loop = w.NewLabel("mixloop");
  w.Comment(sign == Sign::kAdd ? "mixed positive pass" : "mixed negative pass");
  w.L("ldr r4, [sp, " + Imm(slot_meta) + "]");
  LoadElem(w, "r6", "r4", mw);
  w.L("adds r4, r4, " + Imm(mw));
  w.L("str r4, [sp, " + Imm(slot_meta) + "]");
  w.L("ldr r2, [sp, " + Imm(slot_idx) + "]");
  w.L("cmp r6, #0");
  w.L("beq " + done);
  w.L("ldr r1, [sp, " + Imm(kSlotX) + "]");
  w.Label(loop);
  LoadElem(w, "r4", "r2", iw);
  w.L("adds r2, r2, " + Imm(iw));
  w.L("ldrsb r0, [r1, r4]");
  w.L(std::string(AccOp(sign)) + "r0");
  w.L("subs r6, r6, #1");
  w.L("bne " + loop);
  w.Label(done);
  w.L("str r2, [sp, " + Imm(slot_idx) + "]");
}

// One single-step delta iteration: advance stream ptr (r2), walk x ptr (r1), accumulate.
// r0 must hold 0 (zero index register for ldrsb).
void EmitDeltaStep(AsmWriter& w, Sign sign, int iw) {
  LoadElem(w, "r4", "r2", iw);
  w.L("adds r2, r2, " + Imm(iw));
  w.L("adds r1, r1, r4");
  w.L("ldrsb r5, [r1, r0]");
  w.L(std::string(AccOp(sign)) + "r5");
}

// Delta polarity pass, following the FORWARD_DELTA pseudocode of paper Fig. 4: the first
// stream entry is an absolute index, the rest are relative offsets applied to a walking
// input pointer. For 8-bit streams the steady state fetches four offsets per 32-bit flash
// word — the pointer-based traversal the sequential byte stream makes possible.
void EmitDeltaPass(AsmWriter& w, Sign sign, int slot_meta, int slot_idx, int mw, int iw) {
  const std::string store = w.NewLabel("dstore");
  const std::string done = w.NewLabel("ddone");
  w.Comment(sign == Sign::kAdd ? "delta positive pass" : "delta negative pass");
  w.L("ldr r4, [sp, " + Imm(slot_meta) + "]");
  LoadElem(w, "r6", "r4", mw);
  w.L("adds r4, r4, " + Imm(mw));
  w.L("str r4, [sp, " + Imm(slot_meta) + "]");
  w.L("ldr r2, [sp, " + Imm(slot_idx) + "]");
  w.L("cmp r6, #0");
  w.L("beq " + done);
  w.L("ldr r1, [sp, " + Imm(kSlotX) + "]");
  w.L("movs r0, #0");
  w.Comment("first connection: absolute index");
  EmitDeltaStep(w, sign, iw);
  w.L("subs r6, r6, #1");
  w.L("beq " + store);
  if (iw == 1) {
    // Word-batched steady state: 4 offsets per flash word once the stream is aligned.
    const std::string align = w.NewLabel("dalign");
    const std::string unroll = w.NewLabel("dunroll");
    const std::string tail = w.NewLabel("dtail");
    const std::string tail_loop = w.NewLabel("dtailloop");
    w.Label(align);
    w.L("cmp r6, #4");
    w.L("blt " + tail);
    w.L("movs r4, #3");
    w.L("tst r2, r4");
    w.L("beq " + unroll);
    EmitDeltaStep(w, sign, iw);
    w.L("subs r6, r6, #1");
    w.L("b " + align);
    w.Label(unroll);
    w.L("ldr r4, [r2, #0]");
    w.L("adds r2, r2, #4");
    for (int lane = 0; lane < 4; ++lane) {
      if (lane < 3) {
        w.L("uxtb r5, r4");
        w.L("adds r1, r1, r5");
        w.L("ldrsb r5, [r1, r0]");
        w.L(std::string(AccOp(sign)) + "r5");
        w.L("lsrs r4, r4, #8");
      } else {
        w.L("adds r1, r1, r4");
        w.L("ldrsb r5, [r1, r0]");
        w.L(std::string(AccOp(sign)) + "r5");
      }
    }
    w.L("subs r6, r6, #4");
    w.L("cmp r6, #4");
    w.L("bge " + unroll);
    w.Label(tail);
    w.L("cmp r6, #0");
    w.L("beq " + store);
    w.Label(tail_loop);
    EmitDeltaStep(w, sign, iw);
    w.L("subs r6, r6, #1");
    w.L("bne " + tail_loop);
  } else {
    const std::string loop = w.NewLabel("dloop");
    w.Label(loop);
    EmitDeltaStep(w, sign, iw);
    w.L("subs r6, r6, #1");
    w.L("bne " + loop);
  }
  w.Label(store);
  w.L("str r2, [sp, " + Imm(slot_idx) + "]");
  w.Label(done);
}

// Polarity pass over a guaranteed-8-bit absolute index stream (block-local indices, or the
// mixed format on small inputs): per-column count metadata plus a running index pointer,
// with the steady state fetching four indices per 32-bit flash word — the latency payoff of
// formats that bound indices to one byte.
void EmitBytePackedIdxPass(AsmWriter& w, Sign sign, int slot_meta, int slot_idx, int mw) {
  const std::string done = w.NewLabel("bpdone");
  const std::string store = w.NewLabel("bpstore");
  const std::string align = w.NewLabel("bpalign");
  const std::string unroll = w.NewLabel("bpunroll");
  const std::string tail = w.NewLabel("bptail");
  const std::string tail_loop = w.NewLabel("bptailloop");
  auto single_step = [&]() {
    w.L("ldrb r4, [r2, #0]");
    w.L("adds r2, r2, #1");
    w.L("ldrsb r0, [r1, r4]");
    w.L(std::string(AccOp(sign)) + "r0");
  };
  w.Comment(sign == Sign::kAdd ? "byte-packed positive pass" : "byte-packed negative pass");
  w.L("ldr r4, [sp, " + Imm(slot_meta) + "]");
  LoadElem(w, "r6", "r4", mw);
  w.L("adds r4, r4, " + Imm(mw));
  w.L("str r4, [sp, " + Imm(slot_meta) + "]");
  w.L("ldr r2, [sp, " + Imm(slot_idx) + "]");
  w.L("cmp r6, #0");
  w.L("beq " + done);
  w.L("ldr r1, [sp, " + Imm(kSlotX) + "]");
  w.Label(align);
  w.L("cmp r6, #4");
  w.L("blt " + tail);
  w.L("movs r4, #3");
  w.L("tst r2, r4");
  w.L("beq " + unroll);
  single_step();
  w.L("subs r6, r6, #1");
  w.L("b " + align);
  w.Label(unroll);
  w.Comment("four 8-bit indices per flash word");
  w.L("ldr r4, [r2, #0]");
  w.L("adds r2, r2, #4");
  for (int lane = 0; lane < 4; ++lane) {
    if (lane < 3) {
      w.L("uxtb r5, r4");
      w.L("ldrsb r0, [r1, r5]");
      w.L(std::string(AccOp(sign)) + "r0");
      w.L("lsrs r4, r4, #8");
    } else {
      w.L("ldrsb r0, [r1, r4]");
      w.L(std::string(AccOp(sign)) + "r0");
    }
  }
  w.L("subs r6, r6, #4");
  w.L("cmp r6, #4");
  w.L("bge " + unroll);
  w.Label(tail);
  w.L("cmp r6, #0");
  w.L("beq " + store);
  w.Label(tail_loop);
  single_step();
  w.L("subs r6, r6, #1");
  w.L("bne " + tail_loop);
  w.Label(store);
  w.L("str r2, [sp, " + Imm(slot_idx) + "]");
  w.Label(done);
}

// Block-encoding polarity pass for one (block, column): byte-packed traversal against the
// current block's input base.
void EmitBlockPass(AsmWriter& w, Sign sign, int slot_meta, int slot_idx) {
  EmitBytePackedIdxPass(w, sign, slot_meta, slot_idx, /*mw=*/1);
}

std::string GenerateNeuroCKernel(const KernelVariant& v) {
  const std::string name = KernelFunctionName(v);
  AsmWriter w(name);
  const int mw = v.meta_width;
  const int iw = v.idx_width;
  w.Label(name);
  w.L("push {r4, r5, r6, r7, lr}");

  if (v.kind != EncodingKind::kBlock) {
    w.L("sub sp, #44");
    w.L("ldr r1, [r0, " + Imm(kOffInput) + "]");
    w.L("str r1, [sp, " + Imm(kSlotX) + "]");
    w.L("ldr r1, [r0, " + Imm(kOffOutDim) + "]");
    w.L("str r1, [sp, " + Imm(kSlotColsLeft) + "]");
    EmitCommonPrologueFields(w, v.has_scale);
    w.L("ldr r1, [r0, " + Imm(kOffPosMeta) + "]");
    w.L("str r1, [sp, " + Imm(kSlotPosMeta) + "]");
    w.L("ldr r1, [r0, " + Imm(kOffPosIdx) + "]");
    w.L("str r1, [sp, " + Imm(kSlotPosIdx) + "]");
    w.L("ldr r1, [r0, " + Imm(kOffNegMeta) + "]");
    w.L("str r1, [sp, " + Imm(kSlotNegMeta) + "]");
    w.L("ldr r1, [r0, " + Imm(kOffNegIdx) + "]");
    w.L("str r1, [sp, " + Imm(kSlotNegIdx) + "]");
    w.L("ldr r7, [r0, " + Imm(kOffOutput) + "]");

    const std::string col = w.NewLabel("col");
    w.Label(col);
    w.L("movs r3, #0");
    switch (v.kind) {
      case EncodingKind::kCsc:
        EmitCscPass(w, Sign::kAdd, kSlotPosMeta, kSlotPosIdx, mw, iw);
        EmitCscPass(w, Sign::kSub, kSlotNegMeta, kSlotNegIdx, mw, iw);
        break;
      case EncodingKind::kDelta:
        EmitDeltaPass(w, Sign::kAdd, kSlotPosMeta, kSlotPosIdx, mw, iw);
        EmitDeltaPass(w, Sign::kSub, kSlotNegMeta, kSlotNegIdx, mw, iw);
        break;
      case EncodingKind::kMixed:
        if (iw == 1) {
          // Small-input layers have byte-wide absolute indices: same word-batched
          // traversal the block format gets by construction.
          EmitBytePackedIdxPass(w, Sign::kAdd, kSlotPosMeta, kSlotPosIdx, mw);
          EmitBytePackedIdxPass(w, Sign::kSub, kSlotNegMeta, kSlotNegIdx, mw);
        } else {
          EmitMixedPass(w, Sign::kAdd, kSlotPosMeta, kSlotPosIdx, mw, iw);
          EmitMixedPass(w, Sign::kSub, kSlotNegMeta, kSlotNegIdx, mw, iw);
        }
        break;
      case EncodingKind::kBlock:
      case EncodingKind::kUnrolled:
        NEUROC_CHECK(false);
        break;
    }
    EmitRequantEpilogue(w, v.has_scale);
    EmitCountedLoopBack(w, kSlotColsLeft, col);
    w.L("add sp, #44");
    w.L("pop {r4, r5, r6, r7, pc}");
    return w.text();
  }

  // Block kernel: multi-pass with an int32 scratch accumulator (paper Sec. 4.2: inference
  // proceeds in one pass per block).
  w.L("sub sp, #64");
  w.L("ldr r1, [r0, " + Imm(kOffInput) + "]");
  w.L("str r1, [sp, " + Imm(kSlotX) + "]");
  EmitCommonPrologueFields(w, v.has_scale);
  w.L("ldr r1, [r0, " + Imm(kOffPosMeta) + "]");
  w.L("str r1, [sp, " + Imm(kSlotPosMeta) + "]");
  w.L("ldr r1, [r0, " + Imm(kOffPosIdx) + "]");
  w.L("str r1, [sp, " + Imm(kSlotPosIdx) + "]");
  w.L("ldr r1, [r0, " + Imm(kOffNegMeta) + "]");
  w.L("str r1, [sp, " + Imm(kSlotNegMeta) + "]");
  w.L("ldr r1, [r0, " + Imm(kOffNegIdx) + "]");
  w.L("str r1, [sp, " + Imm(kSlotNegIdx) + "]");
  w.L("ldr r1, [r0, " + Imm(kOffNumBlocks) + "]");
  w.L("str r1, [sp, " + Imm(kSlotBlocksLeft) + "]");
  w.L("ldr r1, [r0, " + Imm(kOffBlockSize) + "]");
  w.L("str r1, [sp, " + Imm(kSlotBlockSize) + "]");
  w.L("ldr r1, [r0, " + Imm(kOffScratch) + "]");
  w.L("str r1, [sp, " + Imm(kSlotScratch) + "]");
  w.L("ldr r1, [r0, " + Imm(kOffOutDim) + "]");
  w.L("str r1, [sp, " + Imm(kSlotOutDim) + "]");
  w.L("ldr r1, [r0, " + Imm(kOffOutput) + "]");
  w.L("str r1, [sp, " + Imm(kSlotOutput) + "]");

  w.Comment("phase A: zero the int32 scratch accumulators");
  {
    const std::string z = w.NewLabel("zero");
    w.L("ldr r1, [sp, " + Imm(kSlotScratch) + "]");
    w.L("ldr r2, [sp, " + Imm(kSlotOutDim) + "]");
    w.L("movs r3, #0");
    w.Label(z);
    w.L("str r3, [r1, #0]");
    w.L("adds r1, r1, #4");
    w.L("subs r2, r2, #1");
    w.L("bne " + z);
  }
  w.Comment("phase B: accumulate block by block");
  {
    const std::string block = w.NewLabel("block");
    const std::string col = w.NewLabel("bcol");
    w.Label(block);
    w.L("ldr r7, [sp, " + Imm(kSlotScratch) + "]");
    w.L("ldr r4, [sp, " + Imm(kSlotOutDim) + "]");
    w.L("str r4, [sp, " + Imm(kSlotColsLeft) + "]");
    w.Label(col);
    w.L("ldr r3, [r7, #0]");
    EmitBlockPass(w, Sign::kAdd, kSlotPosMeta, kSlotPosIdx);
    EmitBlockPass(w, Sign::kSub, kSlotNegMeta, kSlotNegIdx);
    w.L("str r3, [r7, #0]");
    w.L("adds r7, r7, #4");
    EmitCountedLoopBack(w, kSlotColsLeft, col);
    w.Comment("advance input base to the next block");
    w.L("ldr r4, [sp, " + Imm(kSlotX) + "]");
    w.L("ldr r5, [sp, " + Imm(kSlotBlockSize) + "]");
    w.L("adds r4, r4, r5");
    w.L("str r4, [sp, " + Imm(kSlotX) + "]");
    EmitCountedLoopBack(w, kSlotBlocksLeft, block);
  }
  w.Comment("phase C: scale, bias, requantize, store");
  {
    const std::string fin = w.NewLabel("fin");
    w.L("ldr r7, [sp, " + Imm(kSlotOutput) + "]");
    w.L("ldr r4, [sp, " + Imm(kSlotOutDim) + "]");
    w.L("str r4, [sp, " + Imm(kSlotColsLeft) + "]");
    w.Label(fin);
    // The scratch walker lives in its stack slot: the requant core clobbers every scratch
    // register.
    w.L("ldr r4, [sp, " + Imm(kSlotScratch) + "]");
    w.L("ldr r3, [r4, #0]");
    w.L("adds r4, r4, #4");
    w.L("str r4, [sp, " + Imm(kSlotScratch) + "]");
    EmitRequantEpilogue(w, v.has_scale);
    EmitCountedLoopBack(w, kSlotColsLeft, fin);
  }
  w.L("add sp, #64");
  w.L("pop {r4, r5, r6, r7, pc}");
  return w.text();
}

// ---------------------------------------------------------------------------
// Unrolled per-model codegen (EncodingKind::kUnrolled).
//
// Register plan for the straight-line column bodies:
//   r0 = 0 (zero index register — Thumb-1 ldrsb has only the register-offset form)
//   r1 = walking input pointer (input base + current element index)
//   r3 = column accumulator
//   r7 = output pointer (advanced by the shared epilogue)
//   r4/r5/r6 = clobbered by the epilogue only; r5 doubles as the ldrsb destination
// The epilogue is reached via `bl` from every column; sp is unchanged between the prologue
// and the epilogue so the requant stack slots stay valid, and the caller's lr was saved by
// the prologue push.
// ---------------------------------------------------------------------------

void EmitUnrolledPrologue(AsmWriter& w, bool has_scale) {
  w.L("push {r4, r5, r6, r7, lr}");
  w.L("sub sp, #28");
  EmitCommonPrologueFields(w, has_scale);
  w.L("ldr r7, [r0, " + Imm(kOffOutput) + "]");
  w.L("ldr r1, [r0, " + Imm(kOffInput) + "]");
  w.L("movs r0, #0");
}

void EmitUnrolledOutro(AsmWriter& w, const std::string& epi_label, bool has_scale) {
  w.L("add sp, #28");
  w.L("pop {r4, r5, r6, r7, pc}");
  w.Label(epi_label);
  EmitRequantEpilogue(w, has_scale);
  w.L("bx lr");
}

// Moves the walking input pointer in r1 by a signed byte delta, chunked into imm8 adds/subs
// (mirrored exactly by UnrolledEncoding::RetargetInstrCount for the size model).
void EmitRetarget(AsmWriter& w, int64_t delta) {
  const char* op = delta < 0 ? "subs r1, " : "adds r1, ";
  int64_t mag = delta < 0 ? -delta : delta;
  while (mag > 0) {
    const int step = mag > 255 ? 255 : static_cast<int>(mag);
    w.L(op + Imm(step));
    mag -= step;
  }
}

// Counts emitted instructions (every line except labels and comments). All fixed-part
// instructions are 2-byte Thumb, so fixed bytes = 2 * count.
size_t CountInstructions(const std::string& text) {
  size_t n = 0;
  size_t pos = 0;
  while (pos < text.size()) {
    size_t end = text.find('\n', pos);
    if (end == std::string::npos) {
      end = text.size();
    }
    const std::string_view line(text.data() + pos, end - pos);
    if (line.rfind("    ", 0) == 0 && line.rfind("    @", 0) != 0) {
      ++n;
    }
    pos = end + 1;
  }
  return n;
}

// Dense q7 layer: the CMSIS-NN-style fully-connected baseline (software MACs only, as forced
// on a Cortex-M0).
std::string GenerateDenseKernel(const KernelVariant& v) {
  const std::string name = KernelFunctionName(v);
  AsmWriter w(name);
  // Frame: 0 in_dim, 4 rows left, 8 shift, 12 rnd, 16 relu, 20 bias ptr, 24 x base.
  w.Label(name);
  w.L("push {r4, r5, r6, r7, lr}");
  w.L("sub sp, #28");
  w.L("ldr r1, [r0, " + Imm(kOffInDim) + "]");
  w.L("str r1, [sp, #0]");
  w.L("ldr r1, [r0, " + Imm(kOffOutDim) + "]");
  w.L("str r1, [sp, " + Imm(kSlotColsLeft) + "]");
  EmitCommonPrologueFields(w, /*has_scale=*/false);
  w.L("ldr r1, [r0, " + Imm(kOffInput) + "]");
  w.L("str r1, [sp, #24]");
  w.L("ldr r5, [r0, " + Imm(kOffWeights) + "]");
  w.L("ldr r7, [r0, " + Imm(kOffOutput) + "]");

  const std::string row = w.NewLabel("row");
  const std::string inner = w.NewLabel("mac");
  const std::string inner_done = w.NewLabel("macdone");
  w.Label(row);
  w.Comment("acc = bias[j]");
  w.L("ldr r4, [sp, " + Imm(kSlotBias) + "]");
  w.L("ldr r3, [r4, #0]");
  w.L("adds r4, r4, #4");
  w.L("str r4, [sp, " + Imm(kSlotBias) + "]");
  w.L("ldr r1, [sp, #24]");
  w.L("ldr r2, [sp, #0]");
  w.L("subs r2, r2, #1");
  w.L("bmi " + inner_done);
  w.Label(inner);
  w.L("ldrsb r4, [r5, r2]");
  w.L("ldrsb r6, [r1, r2]");
  w.L("muls r4, r6, r4");
  w.L("adds r3, r3, r4");
  w.L("subs r2, r2, #1");
  w.L("bpl " + inner);
  w.Label(inner_done);
  w.Comment("advance weight row");
  w.L("ldr r4, [sp, #0]");
  w.L("adds r5, r5, r4");
  // Requantization without the bias re-add (bias seeded the accumulator). r5 holds the
  // weight-row pointer, so the core uses r1/r6 as scratch.
  EmitRequantCore(w, "r1", "r6");
  EmitCountedLoopBack(w, kSlotColsLeft, row);
  w.L("add sp, #28");
  w.L("pop {r4, r5, r6, r7, pc}");
  return w.text();
}

}  // namespace

std::string KernelFunctionName(const KernelVariant& v) {
  if (v.is_dense) {
    return "dense_q7";
  }
  if (v.kind == EncodingKind::kUnrolled) {
    // Per-model-layer, not per-shape: the adjacency is baked into the text.
    return "nc_unrolled_l" + std::to_string(v.unrolled_layer) +
           (v.has_scale ? "_s1" : "_s0");
  }
  std::string name = "nc_";
  name += EncodingKindName(v.kind);
  name += "_m" + std::to_string(v.meta_width);
  name += "_i" + std::to_string(v.idx_width);
  name += v.has_scale ? "_s1" : "_s0";
  return name;
}

std::string GenerateKernelSource(const KernelVariant& v) {
  if (v.is_dense) {
    return GenerateDenseKernel(v);
  }
  NEUROC_CHECK_MSG(v.kind != EncodingKind::kUnrolled,
                   "kUnrolled kernels are per-model; use GenerateUnrolledKernelSource");
  NEUROC_CHECK(v.meta_width == 1 || v.meta_width == 2);
  NEUROC_CHECK(v.idx_width == 1 || v.idx_width == 2);
  if (v.kind == EncodingKind::kBlock) {
    NEUROC_CHECK(v.meta_width == 1 && v.idx_width == 1);
  }
  return GenerateNeuroCKernel(v);
}

std::string GenerateUnrolledKernelSource(const KernelVariant& v,
                                         const UnrolledEncoding& enc) {
  NEUROC_CHECK(v.kind == EncodingKind::kUnrolled && !v.is_dense);
  NEUROC_CHECK(v.unrolled_layer >= 0);
  const std::string name = KernelFunctionName(v);
  AsmWriter w(name);
  const std::string epi = name + "_epi";
  w.Label(name);
  EmitUnrolledPrologue(w, v.has_scale);
  // The walking pointer carries across columns: each element is reached by a signed delta
  // from the previous element (forward within a column, possibly backward at a column
  // boundary). This is the inter-column analogue of the delta format's pointer walk, with
  // the offsets compiled into immediates instead of fetched from flash.
  int64_t prev = 0;
  for (size_t j = 0; j < enc.columns().size(); ++j) {
    w.Comment("column " + std::to_string(j));
    w.L("movs r3, #0");
    for (const UnrolledEncoding::Element& e : enc.columns()[j]) {
      EmitRetarget(w, static_cast<int64_t>(e.index) - prev);
      prev = e.index;
      w.L("ldrsb r5, [r1, r0]");
      w.L(e.sign > 0 ? "adds r3, r3, r5" : "subs r3, r3, r5");
    }
    w.L("bl " + epi);
  }
  EmitUnrolledOutro(w, epi, v.has_scale);
  return w.text();
}

size_t UnrolledKernelFixedBytes(bool has_scale) {
  // Emit only the fixed scaffold through the same emitters the generator uses, then count:
  // every fixed-part instruction is a 2-byte Thumb encoding (the 4-byte `bl`s are per
  // column and belong to the marginal Sizes() model).
  AsmWriter w("ukfixed");
  EmitUnrolledPrologue(w, has_scale);
  EmitUnrolledOutro(w, "ukfixed_epi", has_scale);
  return 2 * CountInstructions(w.text());
}

std::string GenerateConvKernelSource() {
  // Descriptor layout (see src/kernels/conv_desc.h): 0 num_pixels, 4 num_filters,
  // 8 field_size, 12 rel_offsets (u16), 16 weights (q7 [K][field]), 20 bias (i32 [K]),
  // 24 shift, 28 input base, 32 output (q7 [K][pixels]), 36 pixel_base_offsets (u16).
  AsmWriter w(kConvKernelName);
  // Frame: 0 rel base, 4 w row, 8 bias ptr, 12 shift, 16 rnd, 20 pix table ptr,
  //        24 filters left, 28 pixels left, 32 field size, 36 input base, 40 num_pixels.
  w.Label(kConvKernelName);
  w.L("push {r4, r5, r6, r7, lr}");
  w.L("sub sp, #48");
  w.L("ldr r1, [r0, #12]");
  w.L("str r1, [sp, #0]");
  w.L("ldr r1, [r0, #16]");
  w.L("str r1, [sp, #4]");
  w.L("ldr r1, [r0, #20]");
  w.L("str r1, [sp, #8]");
  w.L("ldr r1, [r0, #24]");
  w.L("str r1, [sp, #12]");
  w.Comment("rnd = shift ? 1 << (shift-1) : 0");
  const std::string rnd_done = w.NewLabel("rnd");
  w.L("movs r2, #0");
  w.L("cmp r1, #0");
  w.L("beq " + rnd_done);
  w.L("movs r2, #1");
  w.L("subs r1, r1, #1");
  w.L("lsls r2, r1");
  w.Label(rnd_done);
  w.L("str r2, [sp, #16]");
  w.L("ldr r1, [r0, #4]");
  w.L("str r1, [sp, #24]");
  w.L("ldr r1, [r0, #8]");
  w.L("str r1, [sp, #32]");
  w.L("ldr r1, [r0, #28]");
  w.L("str r1, [sp, #36]");
  w.L("ldr r1, [r0, #0]");
  w.L("str r1, [sp, #40]");
  w.L("ldr r1, [r0, #36]");
  w.L("str r1, [sp, #20]");
  w.L("str r1, [sp, #44]");  // pixel-table base, reloaded at the start of every filter
  w.L("ldr r7, [r0, #32]");

  const std::string filt = w.NewLabel("filt");
  const std::string pix = w.NewLabel("pix");
  const std::string mac = w.NewLabel("mac");
  w.Label(filt);
  w.Comment("reset pixel table and pixel count for this filter");
  w.L("ldr r4, [sp, #40]");
  w.L("str r4, [sp, #28]");
  w.L("ldr r4, [sp, #44]");
  w.L("str r4, [sp, #20]");
  w.Label(pix);
  w.Comment("acc = bias[k]; x = input + pixel_base[p]");
  w.L("ldr r4, [sp, #8]");
  w.L("ldr r3, [r4, #0]");
  w.L("ldr r4, [sp, #20]");
  w.L("ldrh r5, [r4, #0]");
  w.L("adds r4, r4, #2");
  w.L("str r4, [sp, #20]");
  w.L("ldr r1, [sp, #36]");
  w.L("adds r1, r1, r5");
  w.L("ldr r2, [sp, #0]");   // rel offsets walker
  w.L("ldr r5, [sp, #4]");   // weight row walker
  w.L("ldr r6, [sp, #32]");  // field size
  w.Label(mac);
  w.L("ldrh r4, [r2, #0]");
  w.L("adds r2, r2, #2");
  w.L("ldrsb r4, [r1, r4]");
  w.L("ldrb r0, [r5, #0]");
  w.L("adds r5, r5, #1");
  w.L("sxtb r0, r0");
  w.L("muls r4, r0, r4");
  w.L("adds r3, r3, r4");
  w.L("subs r6, r6, #1");
  w.L("bne " + mac);
  w.Comment("requantize (branch-free) and store");
  w.L("ldr r4, [sp, #16]");
  w.L("adds r3, r3, r4");
  w.L("ldr r4, [sp, #12]");
  w.L("asrs r3, r4");
  w.L("movs r4, #127");
  w.L("subs r5, r3, r4");
  w.L("asrs r6, r5, #31");
  w.L("bics r5, r6");
  w.L("subs r3, r3, r5");
  w.L("movs r5, r3");
  w.L("adds r5, #128");
  w.L("asrs r6, r5, #31");
  w.L("ands r5, r6");
  w.L("subs r3, r3, r5");
  w.L("strb r3, [r7, #0]");
  w.L("adds r7, r7, #1");
  EmitCountedLoopBack(w, 28, pix);
  w.Comment("next filter: advance weight row and bias");
  w.L("ldr r4, [sp, #4]");
  w.L("ldr r5, [sp, #32]");
  w.L("adds r4, r4, r5");
  w.L("str r4, [sp, #4]");
  w.L("ldr r4, [sp, #8]");
  w.L("adds r4, r4, #4");
  w.L("str r4, [sp, #8]");
  EmitCountedLoopBack(w, 24, filt);
  w.L("add sp, #48");
  w.L("pop {r4, r5, r6, r7, pc}");
  return w.text();
}

}  // namespace neuroc
