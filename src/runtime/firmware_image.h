// Intel HEX firmware emission: packages the assembled kernels plus the model image into the
// .hex file format accepted by MCU flashing tools (ST-Link, OpenOCD, vendor bootloaders).
// A parser is provided for round-trip verification.

#ifndef NEUROC_SRC_RUNTIME_FIRMWARE_IMAGE_H_
#define NEUROC_SRC_RUNTIME_FIRMWARE_IMAGE_H_

#include <optional>
#include <span>
#include <string>
#include <vector>

#include "src/runtime/deployed_model.h"

namespace neuroc {

struct FirmwareChunk {
  uint32_t addr = 0;
  std::vector<uint8_t> bytes;
};

// Emits Intel HEX (16-byte data records, type-04 extended linear addresses, type-01 EOF).
std::string EmitIntelHex(std::span<const FirmwareChunk> chunks);

// Parses Intel HEX; returns nullopt on malformed records or checksum mismatch. Contiguous
// data is merged into maximal chunks sorted by address.
std::optional<std::vector<FirmwareChunk>> ParseIntelHex(const std::string& text);

// The complete flash content of a built program (kernel code at the flash base, model
// image after the runtime-overhead gap), ready to flash.
std::string FirmwareHex(const DeployedModel::Program& program);

}  // namespace neuroc

#endif  // NEUROC_SRC_RUNTIME_FIRMWARE_IMAGE_H_
