/* 1 << 33 shifts an int by more than its width: undefined (C11
   §6.5.7:3), so not an integer constant expression. */
int main(void) {
	switch (0) {
	case 1 << 33:
		return 1;
	}
	return 0;
}
