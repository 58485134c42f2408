#include "common/bytes.hpp"

namespace dmfsgd::common::bytes_detail {

void ThrowTruncated() { throw DecodeError("ByteReader: truncated frame"); }

}  // namespace dmfsgd::common::bytes_detail
