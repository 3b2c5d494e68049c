#include "core/interaction_layout.h"

#include "common/logging.h"
#include "data/schema.h"

namespace optinter {

InteractionLayout::InteractionLayout(const Architecture& arch,
                                     const std::vector<FactorizeFn>& pair_fns,
                                     size_t num_categorical, size_t emb_cols,
                                     size_t s1, size_t s2, size_t num_triples)
    : s1(s1), s2(s2), emb_cols(emb_cols) {
  const std::vector<std::pair<size_t, size_t>> cat_pairs =
      EnumeratePairs(num_categorical);
  CHECK_EQ(arch.size(), cat_pairs.size());
  CHECK_EQ(pair_fns.size(), arch.size());
  size_t offset = emb_cols;
  size_t slots = 0;
  for (size_t p = 0; p < arch.size(); ++p) {
    const auto [i, j] = cat_pairs[p];
    Block blk{arch[p], pair_fns[p], p, i, j, offset, 0};
    switch (arch[p]) {
      case InterMethod::kMemorize:
        blk.slot = slots++;
        offset += s2;
        break;
      case InterMethod::kFactorize:
        offset += FactorizedWidth(pair_fns[p], s1);
        break;
      case InterMethod::kNaive:
        continue;
    }
    blocks.push_back(blk);
  }
  triple_offset = offset;
  inter_dim = offset + num_triples * s2 - emb_cols;
}

}  // namespace optinter
