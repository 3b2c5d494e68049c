// Bit oracle for the interaction walk: AssembleRows and AssembleRowsBackward
// must write exactly what the plain scalar loops in interaction_reference.h
// write — z, demb, dcross, dtriple and dp — over embedding widths s1 and
// s2 that are and are not multiples of the vector width, weighted and
// single-arm layouts, batch sizes on both sides of the four-row tiles and
// of the parallel grid, pool sizes 1, 2 and 8, and every row source
// (GatheredRows, and TableRows over fp32 and int8 tables).

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "core/interaction_layout.h"
#include "interaction_reference.h"
#include "models/cross_embedding.h"
#include "models/feature_embedding.h"
#include "nn/quant_embedding.h"
#include "tensor/simd.h"
#include "test_data.h"

namespace optinter {
namespace {

using Arm = InteractionLayout::Arm;
using testing::PoolGuard;
using testing::ReferenceAssembleRows;
using testing::ReferenceAssembleRowsBackward;

const Arm kMem{InterMethod::kMemorize};
const Arm kHad{InterMethod::kFactorize, FactorizeFn::kHadamard};
const Arm kInner{InterMethod::kFactorize, FactorizeFn::kInnerProduct};
const Arm kSum{InterMethod::kFactorize, FactorizeFn::kPointwiseSum};

enum class ArmSet { kMemHad, kAllArms, kSingle };

const char* ArmSetName(ArmSet set) {
  switch (set) {
    case ArmSet::kMemHad:
      return "{mem,had}";
    case ArmSet::kAllArms:
      return "{mem,had,inner,sum}";
    case ArmSet::kSingle:
      return "single-arm";
  }
  return "?";
}

// Per pair, by p mod 5: naïve, single-arm memorize, single-arm Hadamard,
// then two weighted blocks of `set`; kSingle cycles single arms instead.
std::vector<std::vector<Arm>> PairArms(ArmSet set, size_t num_pairs) {
  const std::vector<Arm> weighted = set == ArmSet::kMemHad
                                        ? std::vector<Arm>{kMem, kHad}
                                        : std::vector<Arm>{kMem, kHad, kInner,
                                                           kSum};
  std::vector<std::vector<Arm>> arms(num_pairs);
  for (size_t p = 0; p < num_pairs; ++p) {
    if (set == ArmSet::kSingle) {
      const std::vector<std::vector<Arm>> cycle = {
          {kMem}, {kHad}, {kInner}, {kSum}, {}};
      arms[p] = cycle[p % cycle.size()];
      continue;
    }
    switch (p % 5) {
      case 0:
        break;
      case 1:
        arms[p] = {kMem};
        break;
      case 2:
        arms[p] = {kHad};
        break;
      default:
        arms[p] = weighted;
    }
  }
  return arms;
}

// What the random inputs hold.
enum class Values {
  kNormal,  // uniform in [-1, 1], weights in (0, 1)
  kZeros,   // ±0 mixed in, a third of the weights 0
  kTiny,    // ±1e-25 scale, so fused products underflow to ±0
};

float Draw(Rng* rng, Values values) {
  const float u = static_cast<float>(2.0 * rng->Uniform() - 1.0);
  switch (values) {
    case Values::kNormal:
      return u;
    case Values::kZeros: {
      const uint64_t pick = rng->UniformInt(4);
      return pick == 0 ? 0.0f : pick == 1 ? -0.0f : u;
    }
    case Values::kTiny:
      return u * 1e-25f;
  }
  return u;
}

void Fill(Tensor* t, Rng* rng, Values values) {
  for (size_t i = 0; i < t->size(); ++i) t->data()[i] = Draw(rng, values);
}

void FillWeights(Tensor* w, Rng* rng, Values values) {
  for (size_t i = 0; i < w->size(); ++i) {
    const float u = static_cast<float>(rng->Uniform());
    w->data()[i] = values == Values::kZeros && rng->UniformInt(3) == 0
                       ? 0.0f
                       : values == Values::kTiny ? u * 1e-25f : u;
  }
}

template <typename T>
void ExpectSameBits(const T* got, const T* want, size_t n,
                    const std::string& what) {
  for (size_t i = 0; i < n; ++i) {
    if (std::memcmp(got + i, want + i, sizeof(T)) != 0) {
      ADD_FAILURE() << what << " differs first at element " << i << ": "
                    << got[i] << " vs reference " << want[i];
      return;
    }
  }
}

void ExpectSameBits(const Tensor& got, const Tensor& want,
                    const std::string& what) {
  ASSERT_EQ(got.rows(), want.rows()) << what;
  ASSERT_EQ(got.cols(), want.cols()) << what;
  ExpectSameBits(got.data(), want.data(), got.size(), what);
}

// The reference combine is `block[t] += w · arm[t]` as this translation
// unit's compiler contracts it; the walk's is simd::MulAdd. Their z bits
// agree wherever both fuse or both do not — every optimized build the
// goldens record. An unoptimized build does not contract, so there the
// weighted blocks' z is not compared (the single-arm blocks and every
// gradient still are).
bool ReferenceCombineMatchesMulAdd() {
  volatile float a = 1.0f + 0x1p-12f;
  volatile float c = -(1.0f + 0x1p-11f);
  const float x = a;
  const float y = c;
  const bool contracted = x * x + y != 0.0f;
  return contracted == simd::kFusedMulAdd;
}

/// A source as the reference reads it: Pair() copies the memorized row.
template <typename Source>
struct WithPair {
  const Source& src;
  size_t s2;

  void Embeddings(size_t k, float* zr) const { src.Embeddings(k, zr); }
  void Pair(size_t k, size_t slot, float* dst) const {
    const float* row = src.PairRow(k, slot, dst);
    if (row != dst) std::memcpy(dst, row, s2 * sizeof(float));
  }
  void Triples(size_t k, float* dst) const { src.Triples(k, dst); }
};

constexpr size_t kFields = 5;  // categorical, plus one continuous
constexpr size_t kPoolSizes[] = {1, 2, 8};

void CheckGatheredRows(size_t s1, size_t s2, ArmSet set, size_t b,
                       Values values) {
  const std::string trace = "s1=" + std::to_string(s1) +
                            " s2=" + std::to_string(s2) + " " +
                            ArmSetName(set) + " b=" + std::to_string(b);
  SCOPED_TRACE(trace);
  const size_t num_triples = set == ArmSet::kSingle ? 2 : 1;
  const InteractionLayout layout(PairArms(set, kFields * (kFields - 1) / 2),
                                 kFields, (kFields + 1) * s1, s1, s2,
                                 num_triples);
  Rng rng(1000 * s1 + 100 * s2 + b);
  Tensor emb({b, layout.emb_cols});
  Tensor cross({b, layout.pair_slots * s2});
  Tensor triple({b, num_triples * s2});
  Tensor weights({layout.num_pairs, std::max<size_t>(1, layout.weight_stride)});
  Tensor dz({b, layout.z_cols()});
  Fill(&emb, &rng, values);
  Fill(&cross, &rng, values);
  Fill(&triple, &rng, values);
  Fill(&dz, &rng, values);
  FillWeights(&weights, &rng, values);
  const float* w = layout.weight_stride > 0 ? weights.data() : nullptr;
  const GatheredRows rows{emb, cross, triple, s2};
  const bool compare_z =
      layout.weight_stride == 0 || ReferenceCombineMatchesMulAdd();

  ThreadPool::SetGlobalThreads(1);
  Tensor z_ref;
  ReferenceAssembleRows(layout, WithPair<GatheredRows>{rows, s2}, b, &z_ref,
                        w);
  InteractionGrads ref;
  ReferenceAssembleRowsBackward(layout, rows, w, dz, &ref);
  for (const size_t threads : kPoolSizes) {
    SCOPED_TRACE("pool " + std::to_string(threads));
    ThreadPool::SetGlobalThreads(threads);
    Tensor z;
    AssembleRows(layout, rows, b, &z, w);
    if (compare_z) ExpectSameBits(z, z_ref, "z");
    InteractionGrads got;
    AssembleRowsBackward(layout, rows, w, dz, &got);
    ExpectSameBits(got.demb, ref.demb, "demb");
    ExpectSameBits(got.dcross, ref.dcross, "dcross");
    ExpectSameBits(got.dtriple, ref.dtriple, "dtriple");
    ASSERT_EQ(got.dp.size(), ref.dp.size());
    ExpectSameBits(got.dp.data(), ref.dp.data(), got.dp.size(), "dp");
  }
}

TEST(InteractionWalkTest, GatheredRowsMatchReference) {
  PoolGuard guard;
  for (const size_t s1 : {5, 8, 16}) {
    for (const size_t s2 : {3, 4, 8, 12}) {
      for (const ArmSet set :
           {ArmSet::kMemHad, ArmSet::kAllArms, ArmSet::kSingle}) {
        for (const size_t b : {1, 3, 4, 5, 33, 513}) {
          CheckGatheredRows(s1, s2, set, b, Values::kNormal);
        }
      }
    }
  }
}

// ±0 arms and zero weights; and arms small enough that a fused w · arm
// underflows to a signed zero, where a later arm narrower than the block
// must leave the lanes past its width alone.
TEST(InteractionWalkTest, SignedZerosAndUnderflowMatchReference) {
  PoolGuard guard;
  for (const Values values : {Values::kZeros, Values::kTiny}) {
    for (const size_t s1 : {5, 16}) {
      for (const size_t s2 : {4, 12}) {
        for (const ArmSet set : {ArmSet::kMemHad, ArmSet::kAllArms}) {
          for (const size_t b : {5, 513}) {
            CheckGatheredRows(s1, s2, set, b, values);
          }
        }
      }
    }
  }
}

// int8 rows through the quantized tables, as a quantized serving view
// reads them.
struct Int8Tables {
  const std::vector<QuantizedTable>* tables;

  void Row(size_t t, const EmbeddingTable&, int32_t id, float* dst) const {
    (*tables)[t].DequantRow(id, dst);
  }
};

template <typename Tables>
void CheckTableRows(const InteractionLayout& layout, const Batch& batch,
                    const FeatureEmbedding& emb, const CrossEmbedding* pairs,
                    const CrossEmbedding* triples, const float* weights,
                    Tables tables) {
  const TableRows<Tables> src(batch, emb, pairs, triples, tables);
  ThreadPool::SetGlobalThreads(1);
  Tensor z_ref;
  ReferenceAssembleRows(layout, WithPair<TableRows<Tables>>{src, layout.s2},
                        batch.size, &z_ref, weights);
  for (const size_t threads : kPoolSizes) {
    SCOPED_TRACE("pool " + std::to_string(threads));
    ThreadPool::SetGlobalThreads(threads);
    Tensor z;
    AssembleRows(layout, src, batch.size, &z, weights);
    ExpectSameBits(z, z_ref, "z");
  }
}

TEST(InteractionWalkTest, TableRowsMatchReference) {
  if (!ReferenceCombineMatchesMulAdd()) {
    GTEST_SKIP() << "this build does not contract the reference combine";
  }
  PoolGuard guard;
  const EncodedDataset data = testing::TinyDataWithTriples();
  const std::vector<size_t>& train = testing::SharedTinyData().splits.train;
  const size_t num_cat = data.num_categorical();
  for (const size_t s1 : {5, 16}) {
    for (const size_t s2 : {4, 12}) {
      for (const ArmSet set :
           {ArmSet::kMemHad, ArmSet::kAllArms, ArmSet::kSingle}) {
        SCOPED_TRACE("s1=" + std::to_string(s1) + " s2=" +
                     std::to_string(s2) + " " + ArmSetName(set));
        const std::vector<std::vector<Arm>> pair_arms =
            PairArms(set, num_cat * (num_cat - 1) / 2);
        std::vector<size_t> mem_pairs;
        for (size_t p = 0; p < pair_arms.size(); ++p) {
          for (const Arm& arm : pair_arms[p]) {
            if (arm.method == InterMethod::kMemorize) mem_pairs.push_back(p);
          }
        }
        Rng rng(s1 * 31 + s2);
        const FeatureEmbedding emb(data, s1, 0.01f, 0.0f, &rng);
        const CrossEmbedding pairs(data, CrossKind::kPair, mem_pairs, s2,
                                   0.01f, 0.0f, &rng);
        const bool with_triples = set == ArmSet::kSingle;
        std::unique_ptr<CrossEmbedding> triples;
        if (with_triples) {
          triples = std::make_unique<CrossEmbedding>(
              data, CrossKind::kTriple, std::vector<size_t>{0, 1}, s2, 0.01f,
              0.0f, &rng);
        }
        const InteractionLayout layout(pair_arms, num_cat, emb.output_dim(),
                                       s1, s2, with_triples ? 2 : 0);
        Tensor weights(
            {layout.num_pairs, std::max<size_t>(1, layout.weight_stride)});
        FillWeights(&weights, &rng, Values::kNormal);
        const float* w = layout.weight_stride > 0 ? weights.data() : nullptr;

        std::vector<QuantizedTable> int8;
        for (size_t f = 0; f < num_cat; ++f) {
          int8.emplace_back(emb.cat_table(f), QuantMode::kInt8);
        }
        for (size_t t = 0; t < pairs.num_blocks(); ++t) {
          int8.emplace_back(pairs.table(t), QuantMode::kInt8);
        }
        for (size_t t = 0; triples && t < triples->num_blocks(); ++t) {
          int8.emplace_back(triples->table(t), QuantMode::kInt8);
        }
        for (const size_t b : {1, 33, 513}) {
          SCOPED_TRACE("b=" + std::to_string(b));
          Batch batch;
          batch.data = &data;
          batch.rows = train.data();
          batch.size = std::min(b, train.size());
          CheckTableRows(layout, batch, emb, &pairs, triples.get(), w,
                         Fp32Tables{});
          CheckTableRows(layout, batch, emb, &pairs, triples.get(), w,
                         Int8Tables{&int8});
        }
      }
    }
  }
}

}  // namespace
}  // namespace optinter
