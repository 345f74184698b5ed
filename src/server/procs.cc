#include "server/procs.h"

#include <cstring>
#include <vector>

#include "server/protocol.h"

namespace next700 {
namespace server {

uint64_t RegisterKvService(Engine* engine, const KvServiceOptions& options) {
  NEXT700_CHECK(options.value_size >= sizeof(uint64_t));
  Schema schema;
  schema.AddChar("value", options.value_size);
  Table* table = engine->CreateTable("kv", std::move(schema));
  NEXT700_CHECK(options.num_shards >= 1);
  NEXT700_CHECK(options.shard_id < options.num_shards);
  // Sized for the keys this shard holds: the service never adds a key.
  const uint64_t shard_records =
      (options.num_records + options.num_shards - 1) / options.num_shards;
  Index* index = engine->CreateIndex("kv_pk", table, options.index_kind,
                                     shard_records);
  const uint32_t num_partitions = engine->options().num_partitions;
  const uint32_t row_size = table->schema().row_size();
  uint64_t loaded = 0;
  if (options.load_rows) {
    std::vector<uint8_t> value(row_size, 0);
    for (uint64_t key = 0; key < options.num_records; ++key) {
      if (KvShardOf(key, options.num_shards) != options.shard_id) continue;
      std::memcpy(value.data(), &key, sizeof(key));  // RMW counter seed.
      Row* row = engine->LoadRow(table, KvPartitionOf(key, num_partitions),
                                 key, value.data());
      NEXT700_CHECK(index->Insert(key, row).ok());
      ++loaded;
    }
  }

  const uint64_t num_records = options.num_records;

  engine->RegisterProcedure(
      kKvGet, [index, row_size, num_records](Engine* eng, TxnContext* txn,
                                             const uint8_t* args,
                                             size_t arg_len) -> Status {
        WireReader reader(args, arg_len);
        uint64_t key;
        if (!reader.GetU64(&key) || reader.remaining() != 0 ||
            key >= num_records) {
          return Status::InvalidArgument("kv_get: bad arguments");
        }
        auto& reply = txn->reply_payload();
        reply.resize(row_size);
        return eng->Read(txn, index, key, reply.data());
      },
      /*read_only=*/true);

  engine->RegisterProcedure(
      kKvPut, [index, row_size, num_records](Engine* eng, TxnContext* txn,
                                             const uint8_t* args,
                                             size_t arg_len) -> Status {
        WireReader reader(args, arg_len);
        uint64_t key;
        if (!reader.GetU64(&key) || reader.remaining() != row_size ||
            key >= num_records) {
          return Status::InvalidArgument("kv_put: bad arguments");
        }
        std::vector<uint8_t> value(row_size);
        NEXT700_CHECK(reader.GetRaw(value.data(), row_size));
        return eng->Update(txn, index, key, value.data());
      });

  engine->RegisterProcedure(
      kKvRmw, [index, row_size, num_records](Engine* eng, TxnContext* txn,
                                             const uint8_t* args,
                                             size_t arg_len) -> Status {
        WireReader reader(args, arg_len);
        uint16_t nkeys;
        if (!reader.GetU16(&nkeys) || nkeys == 0 || nkeys > kMaxRmwKeys ||
            reader.remaining() != nkeys * sizeof(uint64_t)) {
          return Status::InvalidArgument("kv_rmw: bad arguments");
        }
        std::vector<uint8_t> value(row_size);
        for (uint16_t i = 0; i < nkeys; ++i) {
          uint64_t key;
          NEXT700_CHECK(reader.GetU64(&key));
          if (key >= num_records) {
            return Status::InvalidArgument("kv_rmw: key out of range");
          }
          NEXT700_RETURN_IF_ERROR(
              eng->ReadForUpdate(txn, index, key, value.data()));
          uint64_t counter;
          std::memcpy(&counter, value.data(), sizeof(counter));
          ++counter;
          std::memcpy(value.data(), &counter, sizeof(counter));
          NEXT700_RETURN_IF_ERROR(eng->Update(txn, index, key, value.data()));
        }
        return Status::OK();
      });

  return options.load_rows ? loaded : options.num_records;
}

}  // namespace server
}  // namespace next700
