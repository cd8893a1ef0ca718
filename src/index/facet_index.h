#ifndef IMPLIANCE_INDEX_FACET_INDEX_H_
#define IMPLIANCE_INDEX_FACET_INDEX_H_

#include "index/value_index.h"

namespace impliance::index {

// Facet counting for the guided-search interface (Section 3.2.1) runs on
// the value index: its per-path B+-tree already holds every (value, doc)
// pair in value order, so one value's documents are one contiguous,
// ascending run. No second per-value structure is kept.
using FacetIndex = ValueIndex;

}  // namespace impliance::index

#endif  // IMPLIANCE_INDEX_FACET_INDEX_H_
