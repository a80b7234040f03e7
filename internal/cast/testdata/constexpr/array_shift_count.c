/* 1 << 33 is not an integer constant expression, so a would be a
   variable length array, which file scope forbids. */
int a[1 << 33];

int main(void) {
	return 0;
}
