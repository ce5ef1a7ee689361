#include "core/messages.hpp"

namespace dmv::net {
template class BasicNetwork<core::Message>;
}  // namespace dmv::net
