// One-expression calls into SearchEngine::serve_admitted for tests whose
// searches never throw: the reply comes back by value.
#pragma once

#include "cloud/search_engine.h"

namespace apks {

inline SearchReply serve(const SearchEngine& engine,
                         const SearchRequest& request) {
  SearchReply reply;
  engine.serve_admitted(request, reply);
  return reply;
}

}  // namespace apks
