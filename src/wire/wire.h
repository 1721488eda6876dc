#ifndef CAROUSEL_WIRE_WIRE_H_
#define CAROUSEL_WIRE_WIRE_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "runtime/net.h"
#include "sim/message.h"

namespace carousel::wire {

/// Binary codec for every registered message type (Raft, Carousel, TAPIR,
/// the Raft log payloads they replicate, and the batch envelope).
///
/// Each message defines its layout once, as a field list (Fields(), see
/// common/fields.h); SizeBytes() and this codec's encoder and decoder are
/// three visitors over that one list. The encoding is little-endian and
/// size-exact: for every registered type, Encode() produces exactly
/// Message::SizeBytes() payload bytes, so the bytes the threaded TCP
/// transport puts on the wire are the bytes the simulator's bandwidth
/// model has been charging all along. Fixed headers write their fields
/// and zero-pad to the message's kHeaderBytes budget.
///
/// Not serialized: WanSpan contexts and AppendResponseMsg::wan_spans
/// (accounting metadata, zero wire bytes by design — span attribution is a
/// simulator-side instrument and does not cross a real socket).

/// Serializes `msg`'s payload, framing excluded. Returns an empty vector
/// if the type is not registered (the transport then drops the message).
std::vector<uint8_t> Encode(const sim::Message& msg);

/// Reconstructs a message of `type` from payload bytes. Returns nullptr
/// for unregistered types or malformed input (truncated, or with bytes
/// left over).
sim::MessagePtr Decode(int type, const uint8_t* data, size_t len);

/// True if `type` has encode/decode entries.
bool Encodable(int type);

/// Every registered type tag, ascending (property tests iterate this).
std::vector<int> RegisteredTypes();

/// The codec hooks the threaded runtime's TCP transport consumes.
runtime::WireCodec Codec();

}  // namespace carousel::wire

#endif  // CAROUSEL_WIRE_WIRE_H_
